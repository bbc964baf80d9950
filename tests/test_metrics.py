"""Evaluation metrics: Hurst estimation, binned total variation,
absolute-return autocorrelation scores, predictive R^2, and the report."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import nansde as nd
from nansde import integrator, metrics
from nansde.errors import MetricError
from nansde.rng import DOMAIN_EVAL, EVAL_ENSEMBLE_STREAM, NoiseSeed
from conftest import (
    brownian_path_values, build_model, ell_values, positive_observed_path, state_coefficients,
)

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
        nd.estimate_hurst(nd.Path(grid, brownian_path_values(grid, nd.NoiseSeed(99, j))))
        for j in range(100)
    ]
    assert abs(float(np.median(estimates)) - 0.5) < 0.05


def _hurst_one_path(values):
    """Oracle: the per-path estimator, one 1-d mean per dyadic lag."""
    n = values.size - 1
    lags = [2**j for j in range(n.bit_length()) if 2**j <= n // 8]
    moments = [float(np.mean((values[lag:] - values[:-lag]) ** 2)) for lag in lags]
    log_m = np.log(np.array(lags, dtype=float))
    log_v = np.log(np.array(moments))
    xc = log_m - log_m.mean()
    return float((xc * (log_v - log_v.mean())).sum() / (xc * xc).sum()) / 2.0


def test_hurst_of_an_ensemble_equals_the_per_path_estimates_bit_for_bit():
    # compute_report scores every surviving path in one pass per lag; its
    # report bytes depend on each row matching the path on its own.
    rng = np.random.default_rng(17)
    for n_steps, m in ((64, 3), (250, 40), (1000, 17), (2000, 256)):
        levels = 1.0 + np.cumsum(rng.standard_normal((m, n_steps + 1)), axis=1) * 0.01
        rows = metrics._hurst_rows(levels)
        grid = nd.unit_grid(n_steps)
        for j in (0, m // 2, m - 1):
            assert rows[j] == _hurst_one_path(levels[j])
            assert rows[j] == nd.estimate_hurst(nd.Path(grid, levels[j]))
        assert np.array_equal(rows, [_hurst_one_path(v) for v in levels])
    flat = np.vstack((levels[:2], np.ones(levels.shape[1])))
    with pytest.raises(MetricError):
        metrics._hurst_rows(flat)


# ---------------------------------------------------------------------------
# Binned marginals and total variation
# ---------------------------------------------------------------------------


def test_binspec_from_samples_and_validation():
    spec = nd.BinSpec.from_samples([-1.0, 1.0], k=10)
    assert spec.lo == pytest.approx(-5.0, rel=1e-15)
    assert spec.hi == pytest.approx(5.0, rel=1e-15)
    assert spec.n_bins == 12

    degenerate = nd.BinSpec.from_samples(np.full(6, 2.0), k=10)
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


def test_tv_counts_equal_pooled_concatenation_bit_for_bit():
    # The old formula, written out: bin the concatenated generated returns.
    rng = np.random.default_rng(31)
    bins = nd.BinSpec(-1.0, 1.0, 20)
    edges = np.linspace(-1.0, 1.0, 21)
    for _ in range(5):
        obs = nd.LogReturnSeries(rng.normal(0.0, 0.7, 150))
        gen = [nd.LogReturnSeries(rng.normal(0.1, 0.8, size)) for size in (40, 97, 40, 13)]
        pooled = np.concatenate([g.r for g in gen])
        assert pooled.min() < -1.0 and pooled.max() > 1.0  # both overflow bins used
        p = np.bincount(np.digitize(obs.r, edges), minlength=22) / obs.r.size
        p_hat = np.bincount(np.digitize(pooled, edges), minlength=22) / pooled.size
        assert nd.tv_distance(obs, gen, bins) == 0.5 * float(np.abs(p - p_hat).sum())


def test_tv_bins_a_row_block_at_a_time_as_in_one_call(monkeypatch):
    # Samples exactly on the bin edges, 7 rows in blocks of 3 (the last one
    # ragged): the counts are those of one digitize over the whole matrix.
    monkeypatch.setattr(metrics, "ROW_BLOCK", 3 * 12)
    bins = nd.BinSpec(-1.0, 1.0, 8)
    edges = np.linspace(-1.0, 1.0, 9)
    rng = np.random.default_rng(32)
    matrix = rng.choice(np.concatenate([edges, [-3.0, 3.0]]), size=(7, 12))
    matrix[::2, ::3] = rng.uniform(-1.5, 1.5, size=(4, 4))
    assert set(edges) <= set(matrix.ravel())
    assert [rows.shape[0] for rows in metrics._row_blocks(matrix)] == [3, 3, 1]
    p_hat = np.bincount(np.digitize(matrix.ravel(), edges), minlength=10) / matrix.size
    assert np.array_equal(bins.distribution(matrix), p_hat)
    obs = nd.LogReturnSeries(rng.uniform(-1.2, 1.2, 12))
    p = np.bincount(np.digitize(obs.r, edges), minlength=10) / obs.r.size
    tv = nd.tv_distance(obs, [nd.LogReturnSeries(matrix)], bins)
    assert tv == 0.5 * float(np.abs(p - p_hat).sum())


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


def _corrcoef_profile(r, s):
    a = np.abs(r)
    return np.array([np.corrcoef(a[:-t], a[t:])[0, 1] for t in range(1, s + 1)])


def test_acf_hand_oracle_against_corrcoef():
    obs = nd.LogReturnSeries(np.array([0.1, -0.3, 0.2, -0.4, 0.15, -0.05]))
    gen = nd.LogReturnSeries(np.array([0.2, 0.1, -0.3, 0.25, -0.15, 0.1]))
    diff = _corrcoef_profile(obs.r, 2) - _corrcoef_profile(gen.r, 2)
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


def test_acf_profiles_match_per_lag_corrcoef():
    rng = np.random.default_rng(41)
    for n in (6, 31, 200):
        rows = [rng.standard_t(3, n) for _ in range(4)]
        # Windows of one value have no variance, so n - 2 is the last lag
        # with a defined correlation.
        for s in sorted({1, n // 4, n - 2}):
            got = metrics._abs_corr_profiles(np.array(rows), s)
            assert got.shape == (4, s)
            for row, r in zip(got, rows):
                np.testing.assert_allclose(row, _corrcoef_profile(r, s), rtol=1e-12, atol=0.0)
        with pytest.raises(MetricError, match=f"zero variance at lag {n - 1};"):
            metrics._abs_corr_profiles(np.array(rows), n - 1)


def test_acf_profiles_stay_exact_for_windows_far_from_the_row_mean():
    # |r| near 1 for 60 steps, then near 0: the x windows that leave out
    # part of the quiet tail have tiny spread around a mean far from the
    # row mean, which a one-pass variance would get wrong in the 5th digit.
    rng = np.random.default_rng(44)
    rows = [np.concatenate([1.0 + 1e-6 * rng.normal(size=60), 1e-3 * rng.normal(size=20)])
            for _ in range(3)]
    rows.append(rng.normal(size=80))
    got = metrics._abs_corr_profiles(np.array(rows), 30)
    for row, r in zip(got, rows):
        np.testing.assert_allclose(row, _corrcoef_profile(r, 30), rtol=1e-12, atol=0.0)


def test_acf_scores_mix_series_lengths():
    # The generated series are one matrix: mixed lengths are refused, named.
    rng = np.random.default_rng(42)
    obs = nd.LogReturnSeries(rng.normal(size=60))
    gen = [nd.LogReturnSeries(rng.normal(size=size)) for size in (60, 45, 45, 60, 45)]
    with pytest.raises(ValueError, match=r"one length, got lengths \[45, 60\]"):
        nd.acf_scores(obs, gen, 8)
    # A matrix and a vector of its row length mix freely; other lengths do not.
    rows = nd.LogReturnSeries(rng.normal(size=(3, 60)))
    assert nd.acf_scores(obs, [rows, gen[0]], 8) == nd.acf_scores(
        obs, [nd.LogReturnSeries(np.vstack([rows.r, gen[0].r]))], 8)
    with pytest.raises(ValueError, match=r"got lengths \[45, 60\]"):
        nd.acf_scores(obs, [rows, gen[1]], 8)
    # TV still pools any lengths.
    bins = nd.BinSpec(-3.0, 3.0, 20)
    pooled = nd.LogReturnSeries(np.concatenate([g.r for g in gen]))
    assert nd.tv_distance(obs, gen, bins) == nd.tv_distance(obs, [pooled], bins)


@pytest.mark.parametrize("shape", [(1, 40), (2, 40), (7, 33), (16, 200)])
def test_one_return_matrix_scores_as_its_rows(shape):
    # One series holding a (paths, n) matrix gives the same TV and ACF
    # scores, bit for bit, as its rows passed as separate series.
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    obs = nd.LogReturnSeries(rng.standard_t(4, shape[1] + 5) * 0.1)
    matrix = rng.standard_t(4, shape) * 0.1
    before = matrix.copy()
    whole = nd.LogReturnSeries(matrix)
    rows = [nd.LogReturnSeries(r) for r in matrix]
    assert len(whole) == shape[1] and all(len(r) == shape[1] for r in rows)
    bins = nd.BinSpec.from_samples(obs.r, k=30)
    assert nd.tv_distance(obs, [whole], bins) == nd.tv_distance(obs, rows, bins)
    s = shape[1] // 4
    got = nd.acf_scores(obs, [whole], s)
    assert got == nd.acf_scores(obs, rows, s)
    # ... and the same as the per-row correlations written out
    diff = _corrcoef_profile(obs.r, s) - np.mean([_corrcoef_profile(r, s) for r in matrix], axis=0)
    assert got[0] == pytest.approx(math.sqrt(float((diff * diff).sum())), rel=1e-10)
    assert np.array_equal(matrix, before)  # the scores copy what they overwrite
    # An observed matrix is binned whole, and its ACF is the mean of its
    # rows: the gap only changes sign.
    assert nd.tv_distance(whole, [obs], bins) == nd.tv_distance(
        nd.LogReturnSeries(matrix.ravel()), [obs], bins)
    assert nd.acf_scores(whole, [obs], s) == got


def test_log_return_series_checks_the_whole_matrix():
    assert len(nd.LogReturnSeries(np.zeros((3, 7)))) == 7
    assert len(nd.LogReturnSeries([0.1, 0.2])) == 2
    for bad in (np.zeros((2, 3, 4)), np.zeros(0), np.zeros((0, 5)), np.zeros((3, 0)), 0.5):
        with pytest.raises(ValueError, match="nonempty vector or matrix"):
            nd.LogReturnSeries(bad)
    for value in (math.nan, math.inf, -math.inf):
        matrix = np.zeros((4, 6))
        matrix[3, 5] = value
        with pytest.raises(ValueError, match="finite"):
            nd.LogReturnSeries(matrix)


def test_acf_zero_variance_rule_is_exact():
    # |r| equal to 0.1 over the first (last) k values: the window a[:n-tau]
    # (a[tau:]) is constant from lag n - k on, and not one lag earlier.
    # The mean of repeated 0.1s is not exactly 0.1, so a tolerance-free
    # rule is what makes this exact.
    n, k = 30, 6
    rng = np.random.default_rng(43)
    healthy = nd.LogReturnSeries(rng.normal(size=n))
    body = rng.uniform(0.5, 1.0, n - k) * rng.choice([-1.0, 1.0], n - k)
    flat = 0.1 * rng.choice([-1.0, 1.0], k)
    for r in (np.concatenate([flat, body]), np.concatenate([body, flat])):
        series = nd.LogReturnSeries(r)
        for obs, gen in ((series, [healthy]), (healthy, [healthy, series])):
            with pytest.raises(MetricError, match=f"zero variance at lag {n - k};"):
                nd.acf_scores(obs, gen, n - k)
            plain, weighted = nd.acf_scores(obs, gen, n - k - 1)
            assert math.isfinite(plain) and math.isfinite(weighted)


def test_acf_zero_variance_in_a_later_row_block_names_the_whole_matrix_lag(monkeypatch):
    # Rows are scored in blocks of 2.  Row 1, in the first block, ends in a
    # run of 3 equal |r| and row 5, in the third, in a run of 6: the matrix
    # has a constant window from lag n - 6 on, and that lag is the one named.
    n = 30
    rng = np.random.default_rng(44)
    obs = nd.LogReturnSeries(rng.normal(size=n))
    healthy = [nd.LogReturnSeries(rng.standard_t(4, (7, n)) * 0.1)]
    whole = nd.acf_scores(obs, healthy, 7)
    monkeypatch.setattr(metrics, "ROW_BLOCK", 2 * n)
    assert nd.acf_scores(obs, healthy, 7) == whole  # rows score alike in any block
    matrix = rng.uniform(0.5, 1.0, (7, n)) * rng.choice([-1.0, 1.0], (7, n))
    matrix[1, n - 3:] = 0.1 * rng.choice([-1.0, 1.0], 3)
    matrix[5, n - 6:] = 0.1 * rng.choice([-1.0, 1.0], 6)
    gen = [nd.LogReturnSeries(matrix)]
    for s in (n - 3, n - 6):
        with pytest.raises(MetricError, match=f"zero variance at lag {n - 6};"):
            nd.acf_scores(obs, gen, s)
    plain, weighted = nd.acf_scores(obs, gen, n - 7)
    assert math.isfinite(plain) and math.isfinite(weighted)


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
    assert math.isfinite(a[0]) and a[1] == 0
    with pytest.raises(ValueError):
        nd.r2_score(observed, model, m_pred=0)


def _r2_oracle(observed, model, m_pred, seed):
    """r2_score written out as one expression per step of the recipe: the
    R^2 and the number of predictions left out of it: non-positive, past the
    divergence guard, or read off a K past it."""
    r = nd.log_returns(observed).r
    idx = np.arange(int(math.floor(0.8 * r.size)), r.size)
    dt = observed.grid.dt
    ell1, ell2 = ell_values(model, observed.grid.step_times())
    x_t = observed.values[idx]
    b, sigma, _, _ = state_coefficients(model, x_t)
    dw = np.stack([nd.eval_generator(seed, tag=j).standard_normal(observed.grid.n_steps)
                   * np.sqrt(dt) for j in range(m_pred)])
    k = np.concatenate((np.zeros((m_pred, 1)), np.cumsum(ell2[None, :] * dw, axis=1)), axis=1)
    dz = dw - ell1[None, :] * k[:, :-1] * dt
    # Row t reads K_t, so a stream predicts nothing from its K's first bad row.
    bad = ~(np.abs(k) <= integrator.DIVERGENCE_GUARD)
    k_bad = np.where(bad.any(axis=1), bad.argmax(axis=1), k.shape[1])
    # One C-ordered row of m_pred predictions per test index.
    dz_test = np.ascontiguousarray(dz[:, idx].T)
    x_hat = x_t[:, None] + b[:, None] * dt + sigma[:, None] * dz_test
    assert x_hat.flags.c_contiguous and x_hat.shape == (idx.size, m_pred)
    valid = (x_hat > 0.0) & (x_hat <= integrator.DIVERGENCE_GUARD)
    valid &= idx[:, None] < k_bad[None, :]
    ratio = np.where(valid, x_hat / x_t[:, None], 1.0)
    r_tilde = (np.log(ratio) * valid).sum(axis=1) / valid.sum(axis=1)
    return nd.r2_from_predictions(r[idx], r_tilde), int((~valid).sum())


def test_r2_score_is_the_written_out_recipe_bit_for_bit():
    # The means over the m_pred predictions are sums along each contiguous
    # row, whose rounding is fixed by that layout.
    # Deeper widths take b and sigma through the stacked einsum layers.
    observed = positive_observed_path(500, scale=0.05, seed=4)
    for widths, clamp in itertools.product(((1, 20, 1), (1, 3, 1, 2, 1), (1, 20, 20, 1)),
                                           (False, True)):
        model = nd.NansdeModel(
            *(nd.init_params(widths, seed=9, tag=tag) for tag in range(4)),
            grid=observed.grid, x0=float(observed.values[0]), clamp_ell2=clamp,
        )
        for seed in range(4):
            for m_pred in (1, 7, 64, 200):
                got = nd.r2_score(observed, model, m_pred=m_pred, seed=seed)
                assert got == _r2_oracle(observed, model, m_pred, seed)


def test_r2_score_counts_the_predictions_it_drops():
    # sigma = 5 on dt = 0.01 puts a few percent of the one-step predictions
    # from X ~ 1 below zero; each is left out of its index's mean and counted.
    observed = positive_observed_path(100, scale=0.05, seed=3)
    model = build_model(observed.grid, x0=float(observed.values[0]), sigma=5.0,
                        ell1=(0.0, 1.0), ell2=(0.0, 0.5))
    r2, dropped = nd.r2_score(observed, model, m_pred=64, seed=5)
    assert (r2, dropped) == _r2_oracle(observed, model, 64, 5)
    assert 0 < dropped < 20 * 64

    _, details = nd.compute_report(observed, model, m_eval=64, seed=5, m_pred=64)
    assert details["r2_dropped_predictions"] == dropped


@pytest.mark.parametrize("ell2", [1e200, 1e308])
def test_r2_score_drops_every_prediction_read_off_a_diverged_memory(ell2):
    # K_1 = ell2 dW_0 is past the guard on every stream (at 1e308 K overflows
    # to inf), so every test index reads a dead K.  The sweep kills every
    # path on the same rule, R^2 has nothing to score, and neither warns.
    observed = positive_observed_path(200, scale=0.05, seed=3)
    model = build_model(observed.grid, x0=float(observed.values[0]), sigma=0.1,
                        ell1=(0.0, 1.0), ell2=(0.0, ell2))
    dw = np.stack([nd.eval_generator(0, tag=j).standard_normal(200) * np.sqrt(observed.grid.dt)
                   for j in range(16)], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tape = nd.simulate_batch_with_tape(model, 16, NoiseSeed(1, 0), record=False)
        assert tape.alive.sum() == 0 and np.all(tape.death_step == 0)
        dz, k_bad = integrator.na_noise(model, observed.grid, dw)
        assert np.all(k_bad == 1) and np.array_equal(dz, dw)
        with pytest.raises(MetricError, match="^no usable one-step prediction at test index 160$"):
            nd.r2_score(observed, model, m_pred=16, seed=0)


def test_r2_score_drops_every_prediction_past_the_divergence_guard():
    # ell1 = 1e308 makes dZ_t = dW_t - ell1 K_t dt overflow wherever K_t is
    # not zero, so each one-step X-hat of the test block is past the guard
    # or not finite: the sweep kills every path on that rule, and R^2 must
    # not score what the sweep rejects.  Neither warns.
    observed = positive_observed_path(200, scale=0.05, seed=3)
    model = build_model(observed.grid, x0=float(observed.values[0]), sigma=0.1,
                        ell1=(0.0, 1e308), ell2=(0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tape = nd.simulate_batch_with_tape(model, 16, NoiseSeed(1, 0), record=False)
        assert tape.alive.sum() == 0
        with pytest.raises(MetricError, match="^no usable one-step prediction at test index 160$"):
            nd.r2_score(observed, model, m_pred=16, seed=0)


def test_r2_score_counts_the_predictions_read_off_a_diverged_memory():
    # K = 1e12 W crosses the guard where |W| first exceeds 1: of the 64
    # streams, 30 by row 80 (the first test index), 5 inside the test block
    # and 29 never.  ell1 = 0 and sigma = 0.01 keep every X-hat positive, so
    # the drops are exactly the (t, j) with the stream's first bad row <= t.
    observed = positive_observed_path(100, scale=0.05, seed=3)
    model = build_model(observed.grid, x0=float(observed.values[0]), sigma=0.01,
                        ell2=(0.0, 1e12))
    dw = np.stack([nd.eval_generator(5, tag=j).standard_normal(100) * np.sqrt(observed.grid.dt)
                   for j in range(64)])
    k = np.cumsum(1e12 * dw, axis=1)  # K_1 .. K_100, one row per stream
    k_bad = 1 + np.argmax(np.abs(k) > 1e12, axis=1)
    k_bad[~(np.abs(k) > 1e12).any(axis=1)] = 101
    assert [(k_bad <= 80).sum(), ((80 < k_bad) & (k_bad < 100)).sum()] == [30, 5]
    expected = sum(int((k_bad <= t).sum()) for t in range(80, 100))
    assert expected == 659

    r2, dropped = nd.r2_score(observed, model, m_pred=64, seed=5)
    assert dropped == expected
    assert (r2, dropped) == _r2_oracle(observed, model, 64, 5)
    assert math.isfinite(r2)


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
    ok = dict(hurst_mean=0.5, hurst_std=0.1, tv=0.2, acf=0.3,
              weighted_acf=0.4, r2=-0.5, n_paths=8, n_lags=10, n_bins=52)
    nd.MetricReport(**ok)
    with pytest.raises(ValueError):
        nd.MetricReport(**{**ok, "tv": 1.5})
    with pytest.raises(ValueError):
        nd.MetricReport(**{**ok, "acf": -0.1})
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
    assert report1.acf >= 0.0 and report1.weighted_acf >= 0.0
    assert report1.hurst_std >= 0.0
    assert report1.n_paths == 8
    assert report1.n_lags == nd.default_lag_count(100)
    assert nd.compute_report(observed, model, m_eval=8, seed=11, n_lags=0)[0] == report1
    assert nd.compute_report(observed, model, m_eval=8, seed=11, n_lags=5)[0].n_lags == 5
    assert report1.n_bins == 52
    assert math.isfinite(report1.r2)

    expected_keys = {"hurst_p5", "hurst_p25", "hurst_median", "hurst_p75",
                     "hurst_p95", "hurst_observed", "n_return_paths",
                     "n_diverged_paths", "r2_dropped_predictions"}
    assert set(details1) == expected_keys
    assert details1["r2_dropped_predictions"] == 0
    assert details1["hurst_p5"] <= details1["hurst_median"] <= details1["hurst_p95"]
    assert 1 <= details1["n_return_paths"] <= 8
    assert details1["n_diverged_paths"] == 0
    assert dataclasses.asdict(report1)  # report is a plain data record


def test_compute_report_holds_at_most_two_path_matrices():
    # tracemalloc sees numpy's buffers.  The ensemble's dW waits in X's rows,
    # one scratch takes every Hurst lag's differences, and TV and the ACF
    # read the returns a row block at a time: no more than two (n + 1, m)
    # matrices are live at once, where there were three.
    observed = positive_observed_path(1000, scale=0.05, seed=3)
    model = nd.NansdeModel(*(nd.init_params((1, 20, 1), seed=3, tag=tag) for tag in range(4)),
                           grid=observed.grid, x0=float(observed.values[0]))
    matrix = observed.values.size * 128 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report, _ = nd.compute_report(observed, model, m_eval=128, seed=5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.n_lags == 100
    assert peak < 2.3 * matrix


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

    # Brownian paths from 0.3 with sigma = 1: most cross zero but stay alive.
    # The return metrics must be those of the positive paths' own returns.
    model = build_model(observed.grid, x0=0.3, sigma=1.0)
    report, details = nd.compute_report(observed, model, m_eval=16, seed=11)
    ens = nd.simulate_ensemble(model, 16, NoiseSeed(11, EVAL_ENSEMBLE_STREAM, DOMAIN_EVAL))
    gen = [nd.log_returns(nd.Path(observed.grid, x)) for x in ens.x.T if np.all(x > 0.0)]
    assert details["n_diverged_paths"] == 0
    assert details["n_return_paths"] == len(gen) and 0 < len(gen) < 16
    obs = nd.log_returns(observed)
    assert report.tv == nd.tv_distance(obs, gen, nd.BinSpec.from_samples(obs.r))
    assert (report.acf, report.weighted_acf) == nd.acf_scores(obs, gen, report.n_lags)


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
