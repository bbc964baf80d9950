"""Log-return extraction, the KDE likelihood, the Adam optimizer, and the
training loop's bookkeeping: early stopping, best-model tracking, dropped
path capping and full-run determinism."""

import math

import numpy as np
import pytest

import nansde as nd
from nansde.errors import DataError, TrainingError
from nansde.training import BANDWIDTH_FLOOR, _ensemble_nll, _nll
from conftest import build_model, positive_observed_path

# ---------------------------------------------------------------------------
# Log returns
# ---------------------------------------------------------------------------


def test_log_returns_examples():
    grid = nd.unit_grid(2)
    r = nd.log_returns(nd.Path(grid, np.array([1.0, math.e, math.e**2]))).r
    assert r == pytest.approx([1.0, 1.0], rel=1e-15)

    const = nd.log_returns(nd.Path(grid, np.full(3, 3.7))).r
    assert np.array_equal(const, np.zeros(2))


def test_log_returns_rejects_non_positive_values():
    grid = nd.unit_grid(3)
    with pytest.raises(DataError, match="2"):
        nd.log_returns(nd.Path(grid, np.array([1.0, 2.0, 0.0, 3.0])))
    with pytest.raises(DataError):
        nd.log_returns(nd.Path(grid, np.array([1.0, -2.0, 1.0, 3.0])))


# ---------------------------------------------------------------------------
# Kernel density estimate
# ---------------------------------------------------------------------------


def _kde_log_density(samples, query, floor, bandwidth=None):
    """log p(query) under the floored KDE of one step's samples, via the training loss."""
    bandwidths = None if bandwidth is None else np.array([bandwidth])
    loss, _ = _nll(np.array([query]), np.array([samples], dtype=float), floor, bandwidths)
    return -loss


def test_kde_hand_value_with_pinned_bandwidth():
    # Two samples at -1 and 1, query at 0, bandwidth pinned to 1: the
    # density is exactly phi(1), whose log is -1/2 - log sqrt(2 pi).
    got = _kde_log_density([-1.0, 1.0], 0.0, floor=1e-12, bandwidth=1.0)
    assert got == pytest.approx(-1.4189385332046727, rel=1e-14)
    assert got == pytest.approx(-0.5 - math.log(math.sqrt(2 * math.pi)), rel=1e-14)


def test_kde_floor_and_permutation_invariance():
    samples = [0.01, -0.02, 0.005, 0.0]
    far = _kde_log_density(samples, 1e9, floor=1e-12)
    assert far == math.log(1e-12)
    a = _kde_log_density([1.0, 2.0, 3.0], 1.5, floor=1e-12)
    b = _kde_log_density([3.0, 1.0, 2.0], 1.5, floor=1e-12)
    assert a == pytest.approx(b, rel=1e-13)
    # the KDE needs a spread: fewer than two usable paths is an error
    x = np.array([[1.0, 1.0], [1.1, 1.2]])
    with pytest.raises(TrainingError, match="need at least 2"):
        _ensemble_nll(np.array([0.1]), x, np.array([True, False]), 1e-12)


def test_silverman_bandwidth_rule_and_floor():
    samples = np.array([-2.0, 0.0, 2.0, 4.0])
    expected = 1.06 * samples.std() * 4 ** (-0.2)
    assert nd.silverman_bandwidth(samples) == pytest.approx(expected, rel=1e-15)
    assert nd.silverman_bandwidth(np.full(8, 1.23)) == BANDWIDTH_FLOOR
    # row-wise on the last axis, each row exactly as on its own
    rows = np.array([samples, np.full(4, 1.23), samples[::-1] * 3.0])
    assert np.array_equal(nd.silverman_bandwidth(rows),
                          [nd.silverman_bandwidth(row) for row in rows])


def test_kde_density_integrates_to_one():
    rng = np.random.default_rng(15)
    samples = rng.normal(0.002, 0.01, size=64)
    xs = np.linspace(-0.15, 0.15, 6001)
    dens = np.exp([_kde_log_density(samples, float(x), floor=1e-300) for x in xs])
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# Ensemble likelihood
# ---------------------------------------------------------------------------


def _ensemble_of(paths):
    values = np.column_stack([p.values for p in paths])
    return nd.Ensemble(paths[0].grid, values, np.ones(len(paths), dtype=bool))


def test_nll_degenerate_ensemble_hits_peak_density():
    observed = positive_observed_path(16, scale=0.2, seed=1)
    obs = nd.log_returns(observed)
    ens = _ensemble_of([observed] * 4)
    # identical samples: zero std, floored bandwidth, density = phi(0)/h
    per_t = -(math.log(1.0 / math.sqrt(2 * math.pi)) - math.log(BANDWIDTH_FLOOR))
    assert nd.nll_loss(obs, ens, floor=1e-12) == pytest.approx(per_t, rel=1e-12)


def test_nll_floor_dominates_far_observations():
    observed = positive_observed_path(16, scale=0.2, seed=1)
    far = nd.LogReturnSeries(np.full(16, 50.0))
    ens = _ensemble_of([observed] * 4)
    assert nd.nll_loss(far, ens, floor=1e-12) == pytest.approx(-math.log(1e-12), rel=1e-14)


def test_nll_is_invariant_to_path_order():
    grid = nd.unit_grid(16)
    model = build_model(grid, sigma=0.3, x0=1.0)
    ens = nd.simulate_ensemble(model, 6, nd.NoiseSeed(8, 0))
    obs = nd.log_returns(positive_observed_path(16, scale=0.2, seed=2))
    loss = nd.nll_loss(obs, ens, floor=1e-12)
    order = [4, 0, 5, 2, 1, 3]
    shuffled = nd.Ensemble(ens.grid, ens.values_matrix()[:, order], ens.alive[order])
    assert nd.nll_loss(obs, shuffled, floor=1e-12) == pytest.approx(loss, rel=1e-13)


def test_nll_drops_non_positive_paths():
    observed = positive_observed_path(16, scale=0.2, seed=1)
    obs = nd.log_returns(observed)
    grid = observed.grid
    bad_values = observed.values.copy()
    bad_values[7] = -0.5
    bad = nd.Path(grid, bad_values)
    keep_a = nd.Path(grid, observed.values * 1.1)
    keep_b = nd.Path(grid, observed.values * 0.9)

    with_bad = nd.nll_loss(obs, _ensemble_of([keep_a, bad, keep_b]), floor=1e-12)
    without = nd.nll_loss(obs, _ensemble_of([keep_a, keep_b]), floor=1e-12)
    assert with_bad == without
    # a diverged path is dropped the same way, whatever its values
    ens = _ensemble_of([keep_a, observed, keep_b])
    dead = nd.Ensemble(grid, ens.values_matrix(), np.array([True, False, True]))
    assert nd.nll_loss(obs, dead, floor=1e-12) == without

    with pytest.raises(TrainingError):
        nd.nll_loss(obs, _ensemble_of([keep_a, bad]), floor=1e-12)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_adam_first_step_is_signed_learning_rate():
    params = [np.array([5.0])]
    opt = nd.Adam([p.shape for p in params], lr=0.1)
    opt.step(params, [np.array([2.0])])
    # bias-corrected m-hat = g, v-hat = g^2 on the first step
    assert params[0][0] == pytest.approx(5.0 - 0.1 * 2.0 / (2.0 + 1e-8), rel=1e-15)


def test_adam_zero_gradient_leaves_parameters_unchanged():
    params = [np.array([1.5, -2.5])]
    opt = nd.Adam([p.shape for p in params], lr=0.05)
    opt.step(params, [np.zeros(2)])
    assert np.array_equal(params[0], np.array([1.5, -2.5]))
    assert opt.t == 1


def test_adam_minimizes_a_quadratic():
    params = [np.array([4.0])]
    opt = nd.Adam([p.shape for p in params], lr=0.1)
    for _ in range(600):
        grad = 2.0 * (params[0] - 3.0)
        opt.step(params, [grad])
    assert params[0][0] == pytest.approx(3.0, abs=1e-2)


def test_adam_mismatched_lists_are_rejected():
    opt = nd.Adam([(2,)], lr=0.1)
    with pytest.raises(ValueError):
        opt.step([np.zeros(2), np.zeros(2)], [np.zeros(2), np.zeros(2)])
    with pytest.raises(ValueError):
        nd.Adam([(2,)], lr=-0.1)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def test_train_config_validation_and_iteration_seeds():
    seed = nd.NoiseSeed(1, 0)
    with pytest.raises(ValueError):
        nd.TrainConfig(seed=seed, m=1)
    with pytest.raises(ValueError):
        nd.TrainConfig(seed=seed, lr=0.0)
    with pytest.raises(ValueError):
        nd.TrainConfig(seed=seed, early_stop_patience=-1)
    with pytest.raises(ValueError):
        nd.TrainConfig(seed=seed, max_iters=10, early_stop_patience=11)
    with pytest.raises(ValueError):
        nd.TrainConfig(seed=seed, kde_floor=0.0)
    cfg = nd.TrainConfig(seed=seed, m=16)
    # one disjoint stream block per iteration
    assert cfg.iteration_seed(0) == seed
    assert cfg.iteration_seed(3) == nd.NoiseSeed(1, 48)


def test_train_step_is_deterministic():
    observed = positive_observed_path(40, scale=0.1, seed=9)
    obs = nd.log_returns(observed)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(4, 0), m=8, max_iters=5,
                         early_stop_patience=5)
    states = []
    for _ in range(2):
        st = nd.init_state(observed, cfg, init_seed=104, widths=(1, 3, 1))
        nd.train_step(st, obs, cfg)
        nd.train_step(st, obs, cfg)
        states.append(st)
    a, b = states
    assert a.history == b.history
    for x, y in zip(a.model.drift_net.arrays(), b.model.drift_net.arrays()):
        assert np.array_equal(x, y)
    assert a.iteration == 2
    assert len(a.history) == 2
    # fresh noise per iteration: consecutive losses differ
    assert a.history[0] != a.history[1]


def test_patience_zero_runs_exactly_one_iteration():
    observed = positive_observed_path(40, scale=0.1, seed=9)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(4, 0), m=8, max_iters=5,
                         early_stop_patience=0)
    _, state = nd.fit(observed, cfg, init_seed=104, widths=(1, 3, 1))
    assert state.iteration == 1
    assert len(state.history) == 1


def test_best_model_contract_and_monotone_best():
    observed = positive_observed_path(40, scale=0.1, seed=9)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(4, 0), m=8, max_iters=10,
                         early_stop_patience=10)
    best, state = nd.fit(observed, cfg, init_seed=104, widths=(1, 3, 1))
    assert state.warnings == []  # a clean run, so min(history) is the best
    assert len(state.history) == state.iteration

    running = np.minimum.accumulate(state.history)
    assert np.all(np.diff(running) <= 0.0)
    assert state.best_loss == min(state.history)

    ens = nd.simulate_ensemble(best, cfg.m, cfg.iteration_seed(state.best_iteration))
    recomputed = nd.nll_loss(nd.log_returns(observed), ens, cfg.kde_floor)
    assert recomputed == pytest.approx(state.best_loss, rel=1e-12)


def test_capped_iteration_cannot_become_best():
    # A diffusion far too large drives >20% of paths non-positive: the
    # iteration still takes its step but is barred from the best slot.
    observed = positive_observed_path(40, scale=0.05, seed=123)
    obs = nd.log_returns(observed)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(6, 0), m=32, max_iters=3,
                         early_stop_patience=3)
    model = build_model(observed.grid, x0=float(observed.values[0]), sigma=1.0)
    from nansde.training import _trainable_arrays
    adam = nd.Adam([a.shape for a in _trainable_arrays(model)], lr=cfg.lr)
    state = nd.TrainState(model=model, adam=adam, best_model=model.copy())
    before = model.diffusion_net.biases[0].copy()

    nd.train_step(state, obs, cfg)

    assert len(state.warnings) == 1
    assert "not eligible as best" in state.warnings[0]
    assert state.best_iteration == -1
    assert state.best_loss == math.inf
    assert state.since_improve == 1
    assert len(state.history) == 1 and math.isfinite(state.history[0])
    assert not np.array_equal(model.diffusion_net.biases[0], before)


def test_fit_flags_a_run_with_no_eligible_iteration():
    # The series starts at 0.5 while the initial diffusion is about
    # softplus(0) = 0.69, so every iteration loses more than a fifth of its
    # paths below zero and none can become the best.
    grid = nd.unit_grid(40)
    w = nd.brownian_path(grid, nd.NoiseSeed(123, 0))
    observed = nd.Path(grid, 0.5 * np.exp(0.05 * w.values))
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(6, 0), m=32, max_iters=3,
                         early_stop_patience=3)
    best, state = nd.fit(observed, cfg, init_seed=7, widths=(1, 3, 1))

    assert state.iteration == 3
    assert state.best_iteration == -1 and state.best_loss == math.inf
    capped = [line for line in state.warnings if "not eligible as best" in line]
    assert len(capped) == 3
    assert state.warnings[-1] == (
        "no iteration of 3 was eligible as best; returning the initial networks"
    )
    initial = nd.init_state(observed, cfg, init_seed=7, widths=(1, 3, 1)).model
    for name in best.trainable_names():
        for a, b in zip(best.net(name).arrays(), initial.net(name).arrays()):
            assert np.array_equal(a, b)


def test_train_step_errors_when_almost_no_path_survives():
    observed = positive_observed_path(40, scale=0.05, seed=123)
    obs = nd.log_returns(observed)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(6, 0), m=8, max_iters=1,
                         early_stop_patience=1)
    model = build_model(observed.grid, x0=float(observed.values[0]), sigma=40.0)
    from nansde.training import _trainable_arrays
    adam = nd.Adam([a.shape for a in _trainable_arrays(model)], lr=cfg.lr)
    state = nd.TrainState(model=model, adam=adam, best_model=model.copy())
    with pytest.raises(TrainingError):
        nd.train_step(state, obs, cfg)


def test_fit_is_reproducible_end_to_end():
    observed = positive_observed_path(40, scale=0.1, seed=9)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(4, 0), m=8, max_iters=6,
                         early_stop_patience=6)
    best1, st1 = nd.fit(observed, cfg, init_seed=104, widths=(1, 3, 1))
    best2, st2 = nd.fit(observed, cfg, init_seed=104, widths=(1, 3, 1))
    assert st1.history == st2.history
    for name in best1.trainable_names():
        for a, b in zip(best1.net(name).arrays(), best2.net(name).arrays()):
            assert np.array_equal(a, b)


def test_fit_clamped_keeps_ell2_frozen():
    observed = positive_observed_path(40, scale=0.1, seed=9)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(4, 0), m=8, max_iters=4,
                         early_stop_patience=4)
    best, state = nd.fit(observed, cfg, init_seed=104, widths=(1, 3, 1),
                         clamp_ell2=True)
    fresh = nd.init_params((1, 3, 1), 104, tag=3)
    for a, b in zip(best.ell2_net.arrays(), fresh.arrays()):
        assert np.array_equal(a, b)
    _, ell2 = nd.kernel_values(best, observed.grid.step_times())
    assert np.array_equal(ell2, np.zeros(observed.grid.n_steps))
