"""Evaluation metrics: Hurst estimation, binned total variation,
absolute-return autocorrelation scores, predictive R^2, and the report."""

import dataclasses
import math

import numpy as np
import pytest

import nansde as nd
from nansde import integrator
from nansde.errors import MetricError
from conftest import build_model, positive_observed_path

# ---------------------------------------------------------------------------
# Hurst index
# ---------------------------------------------------------------------------


def test_default_lag_count():
    assert nd.default_lag_count(400) == 100
    assert nd.default_lag_count(40) == 10
    assert nd.default_lag_count(2) == 1
    assert nd.default_lag_count(4000) == 100


def test_hurst_of_linear_path_is_one():
    # A pure trend has |X_{t+m dt} - X_t| = m dt, so the uncentered
    # second moment scales exactly like m^2 and the slope fit gives H = 1.
    grid = nd.unit_grid(128)
    h = nd.estimate_hurst(nd.Path(grid, grid.times()))
    assert h == pytest.approx(1.0, abs=1e-12)
    assert h >= 0.95


def test_hurst_needs_at_least_64_steps():
    grid = nd.unit_grid(63)
    with pytest.raises(MetricError):
        nd.estimate_hurst(nd.Path(grid, 1.0 + grid.times()))
    with pytest.raises(MetricError):
        nd.estimate_hurst(nd.Path(nd.unit_grid(64), np.ones(65)))  # no variation


def test_hurst_brownian_median_near_half():
    grid = nd.unit_grid(512)
    estimates = [
        nd.estimate_hurst(nd.brownian_path(grid, nd.NoiseSeed(99, j)))
        for j in range(100)
    ]
    assert abs(float(np.median(estimates)) - 0.5) < 0.05


def test_hurst_on_returns_matches_log_levels():
    grid = nd.unit_grid(128)
    w = nd.brownian_path(grid, nd.NoiseSeed(5, 0))
    level = nd.estimate_hurst(w)
    via_returns = nd.estimate_hurst(nd.Path(grid, np.exp(w.values)), on_returns=True)
    assert via_returns == pytest.approx(level, rel=1e-12)
    with pytest.raises(MetricError):
        nd.estimate_hurst(nd.Path(grid, w.values - w.values.min() - 1.0),
                          on_returns=True)


# ---------------------------------------------------------------------------
# Binned marginals and total variation
# ---------------------------------------------------------------------------


def test_binspec_from_samples_and_validation():
    spec = nd.BinSpec.from_samples([-1.0, 1.0], k=10, span=5.0)
    assert spec.lo == pytest.approx(-5.0, rel=1e-15)
    assert spec.hi == pytest.approx(5.0, rel=1e-15)
    assert spec.n_bins == 12

    degenerate = nd.BinSpec.from_samples(np.full(6, 2.0), k=10, span=5.0)
    assert degenerate.lo == pytest.approx(1.0)
    assert degenerate.hi == pytest.approx(3.0)

    with pytest.raises(ValueError):
        nd.BinSpec(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        nd.BinSpec(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        nd.BinSpec(math.nan, 1.0, 10)


def test_binspec_distribution_with_overflow_bins():
    spec = nd.BinSpec(0.0, 1.0, 2)
    probs = spec.distribution([-1.0, 0.25, 0.75, 2.0, 0.25])
    assert np.array_equal(probs, np.array([1, 2, 1, 1]) / 5.0)
    assert probs.sum() == pytest.approx(1.0, rel=1e-15)
    assert probs.shape == (spec.n_bins,)
    with pytest.raises(ValueError):
        spec.distribution([])


def test_tv_identical_is_zero_and_disjoint_is_one():
    bins = nd.BinSpec(-1.0, 1.0, 20)
    r = nd.LogReturnSeries(np.linspace(-0.9, 0.9, 50))
    assert nd.tv_distance(r, [r], bins) == 0.0
    far = nd.LogReturnSeries(np.full(50, 10.0))  # lands in the overflow bin
    assert nd.tv_distance(r, [far], bins) == 1.0


def test_tv_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(30)
    bins = nd.BinSpec(-3.0, 3.0, 40)
    for _ in range(30):
        a = nd.LogReturnSeries(rng.normal(0.0, 1.0, 80))
        b = nd.LogReturnSeries(rng.normal(0.3, 1.2, 80))
        c = nd.LogReturnSeries(rng.normal(-0.2, 0.8, 80))
        ab = nd.tv_distance(a, [b], bins)
        ba = nd.tv_distance(b, [a], bins)
        assert ab == ba
        assert 0.0 <= ab <= 1.0
        assert nd.tv_distance(a, [c], bins) <= ab + nd.tv_distance(b, [c], bins) + 1e-12


def test_tv_pools_generated_series():
    bins = nd.BinSpec(-1.0, 1.0, 10)
    obs = nd.LogReturnSeries(np.linspace(-0.5, 0.5, 40))
    g1 = nd.LogReturnSeries(np.linspace(-0.5, 0.0, 20))
    g2 = nd.LogReturnSeries(np.linspace(0.0, 0.5, 20))
    pooled = nd.LogReturnSeries(np.concatenate([g1.r, g2.r]))
    assert nd.tv_distance(obs, [g1, g2], bins) == nd.tv_distance(obs, [pooled], bins)
    with pytest.raises(ValueError):
        nd.tv_distance(obs, [], bins)


# ---------------------------------------------------------------------------
# Autocorrelation scores
# ---------------------------------------------------------------------------


def test_acf_weights_are_linear_with_unit_mean():
    assert np.allclose(nd.acf_weights(3), [0.5, 1.0, 1.5], rtol=1e-15)
    for s in (1, 10, 100):
        assert nd.acf_weights(s).mean() == pytest.approx(1.0, abs=1e-12)


def test_acf_identical_series_scores_zero():
    r = nd.LogReturnSeries(np.sin(np.linspace(0.0, 7.0, 40)) + 1.5)
    assert nd.acf_scores(r, [r], 5) == (0.0, 0.0)


def test_acf_ignores_return_signs():
    rng = np.random.default_rng(17)
    obs = nd.LogReturnSeries(rng.normal(size=30))
    gen = nd.LogReturnSeries(rng.normal(size=30))
    flipped = nd.LogReturnSeries(-gen.r)
    assert nd.acf_scores(obs, [gen], 4) == nd.acf_scores(obs, [flipped], 4)


def test_acf_hand_oracle_against_corrcoef():
    obs = nd.LogReturnSeries(np.array([0.1, -0.3, 0.2, -0.4, 0.15, -0.05]))
    gen = nd.LogReturnSeries(np.array([0.2, 0.1, -0.3, 0.25, -0.15, 0.1]))

    def profile(r, s):
        a = np.abs(r)
        return np.array([np.corrcoef(a[:-t], a[t:])[0, 1] for t in range(1, s + 1)])

    diff = profile(obs.r, 2) - profile(gen.r, 2)
    plain = math.sqrt(float((diff * diff).sum()))
    weighted = math.sqrt(float(((nd.acf_weights(2) * diff) ** 2).sum()))
    got_plain, got_weighted = nd.acf_scores(obs, [gen], 2)
    assert got_plain == pytest.approx(plain, rel=1e-10)
    assert got_weighted == pytest.approx(weighted, rel=1e-10)


def test_acf_degenerate_series_rejected():
    alternating = nd.LogReturnSeries(np.tile([1.0, -1.0], 10))  # constant |r|
    healthy = nd.LogReturnSeries(np.random.default_rng(3).normal(size=20))
    with pytest.raises(MetricError):
        nd.acf_scores(alternating, [healthy], 2)
    short = nd.LogReturnSeries(np.array([0.1, -0.2, 0.3]))
    with pytest.raises(MetricError):
        nd.acf_scores(short, [healthy], 5)
    with pytest.raises(ValueError):
        nd.acf_scores(healthy, [healthy], 0)


# ---------------------------------------------------------------------------
# Predictive R^2
# ---------------------------------------------------------------------------


def test_r2_from_predictions_identities():
    r = np.array([0.1, -0.2, 0.3, 0.05])
    assert nd.r2_from_predictions(r, r) == 1.0
    assert nd.r2_from_predictions(r, np.full(4, r.mean())) == 0.0
    assert nd.r2_from_predictions(r, -5.0 * r) < 0.0
    with pytest.raises(MetricError):
        nd.r2_from_predictions(np.full(4, 0.2), r)
    with pytest.raises(ValueError):
        nd.r2_from_predictions(r, r[:3])


def test_r2_score_is_deterministic():
    observed = positive_observed_path(100, scale=0.05, seed=3)
    model = build_model(observed.grid, x0=float(observed.values[0]), sigma=0.1)
    a = nd.r2_score(observed, model, seed=12)
    b = nd.r2_score(observed, model, seed=12)
    assert a == b
    assert math.isfinite(a)
    with pytest.raises(ValueError):
        nd.r2_score(observed, model, split=1.0)
    with pytest.raises(ValueError):
        nd.r2_score(observed, model, m_pred=0)


def test_r2_score_rejects_flat_test_block():
    grid = nd.unit_grid(100)
    values = positive_observed_path(100, scale=0.05, seed=3).values.copy()
    values[80:] = values[80]  # constant tail -> zero test returns
    with pytest.raises(MetricError):
        nd.r2_score(nd.Path(grid, values), build_model(grid, sigma=0.1), seed=0)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def test_metric_report_validates_ranges():
    ok = dict(hurst_mean=0.5, hurst_std=0.1, tv=0.2, acf_score=0.3,
              weighted_acf_score=0.4, r2=-0.5, n_paths=8, n_lags=10, n_bins=52)
    nd.MetricReport(**ok)
    with pytest.raises(ValueError):
        nd.MetricReport(**{**ok, "tv": 1.5})
    with pytest.raises(ValueError):
        nd.MetricReport(**{**ok, "acf_score": -0.1})
    with pytest.raises(ValueError):
        nd.MetricReport(**{**ok, "hurst_std": -0.1})


def test_compute_report_bounds_and_determinism():
    observed = positive_observed_path(100, scale=0.05, seed=3)
    model = build_model(observed.grid, x0=float(observed.values[0]), sigma=0.05,
                        drift=(0.0, 0.01))
    report1, details1 = nd.compute_report(observed, model, m_eval=8, seed=11)
    report2, details2 = nd.compute_report(observed, model, m_eval=8, seed=11)
    assert report1 == report2
    assert details1 == details2

    assert 0.0 <= report1.tv <= 1.0
    assert report1.acf_score >= 0.0 and report1.weighted_acf_score >= 0.0
    assert report1.hurst_std >= 0.0
    assert report1.n_paths == 8
    assert report1.n_lags == nd.default_lag_count(100)
    assert report1.n_bins == 52
    assert math.isfinite(report1.r2)

    expected_keys = {"hurst_p5", "hurst_p25", "hurst_median", "hurst_p75",
                     "hurst_p95", "hurst_observed", "n_return_paths",
                     "n_diverged_paths"}
    assert set(details1) == expected_keys
    assert details1["hurst_p5"] <= details1["hurst_median"] <= details1["hurst_p95"]
    assert 1 <= details1["n_return_paths"] <= 8
    assert details1["n_diverged_paths"] == 0
    assert dataclasses.asdict(report1)  # report is a plain data record


def test_compute_report_skips_diverged_paths():
    # X grows like e^{30 t}: the paths whose noise pushes them up cross the
    # divergence guard before t = 1, the rest stay finite and positive.
    observed = positive_observed_path(200, scale=0.05, seed=3)
    growth = build_model(observed.grid, x0=0.5, drift=(30.4, 0.0), sigma=1.0)
    report, details = nd.compute_report(observed, growth, m_eval=16, seed=11)
    assert 0 < details["n_diverged_paths"] < 16
    assert details["n_return_paths"] == 16 - details["n_diverged_paths"]
    assert report.n_paths == 16
    assert math.isfinite(report.hurst_mean) and math.isfinite(report.r2)

    runaway = build_model(observed.grid, drift=(0.0, 1e14))
    with pytest.raises(MetricError, match="diverged"):
        nd.compute_report(observed, runaway, m_eval=4, seed=11)


def test_evaluation_noise_is_held_out_from_training(monkeypatch):
    # Record every increment vector the simulator draws, first in a short
    # training run and then in a report on the same seed.
    drawn = []
    draw = integrator.brownian_increments

    def recording(grid, seed):
        dw = draw(grid, seed)
        drawn.append(dw.tobytes())
        return dw

    monkeypatch.setattr(integrator, "brownian_increments", recording)
    observed = positive_observed_path(100, scale=0.05, seed=3)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(5, 0), m=8, max_iters=3,
                         early_stop_patience=3)
    model, _ = nd.fit(observed, cfg, init_seed=5, widths=(1, 3, 1))
    training = set(drawn)
    assert len(training) == 3 * cfg.m

    drawn.clear()
    nd.compute_report(observed, model, m_eval=4 * cfg.m, seed=5, m_pred=8)
    evaluation = set(drawn)
    assert len(evaluation) == 4 * cfg.m
    assert evaluation.isdisjoint(training)
    # nor do the ensemble paths reuse the R^2 resampling noise
    dt = observed.grid.dt
    resampled = {(nd.eval_generator(5, tag=j).standard_normal(100) * np.sqrt(dt)).tobytes()
                 for j in range(8)}
    assert evaluation.isdisjoint(resampled)
