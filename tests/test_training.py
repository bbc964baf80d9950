"""Log-return extraction, the KDE likelihood, the Adam optimizer, and the
training loop's bookkeeping: early stopping, best-model tracking, dropped
path capping and full-run determinism."""

import math
import pathlib
import runpy
import tracemalloc

import numpy as np
import pytest

import nansde as nd
import nansde.training
from nansde import ioutil
from nansde.errors import DataError, TrainingError
from nansde.training import BANDWIDTH_FLOOR, _ensemble_nll, _nll, _trainable_arrays
from conftest import brownian_path_values, build_model, ell_values, positive_observed_path

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
    loss, _, _ = _nll(np.array([query]), np.array([samples], dtype=float), floor, bandwidths)
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


def _values_of(paths):
    return np.column_stack([p.values for p in paths])


def nll_loss(observed, values, floor, alive=None):
    """The training loss of an observed series against simulated path values,
    one column per path (default: every path alive)."""
    alive = np.ones(values.shape[1], dtype=bool) if alive is None else alive
    return _ensemble_nll(observed.r, values, alive, floor)[0]


def test_nll_degenerate_ensemble_hits_peak_density():
    observed = positive_observed_path(16, scale=0.2, seed=1)
    obs = nd.log_returns(observed)
    ens = _values_of([observed] * 4)
    # identical samples: zero std, floored bandwidth, density = phi(0)/h
    per_t = -(math.log(1.0 / math.sqrt(2 * math.pi)) - math.log(BANDWIDTH_FLOOR))
    assert nll_loss(obs, ens, floor=1e-12) == pytest.approx(per_t, rel=1e-12)


def test_nll_floor_dominates_far_observations():
    observed = positive_observed_path(16, scale=0.2, seed=1)
    far = nd.LogReturnSeries(np.full(16, 50.0))
    ens = _values_of([observed] * 4)
    assert nll_loss(far, ens, floor=1e-12) == pytest.approx(-math.log(1e-12), rel=1e-14)


def test_nll_is_invariant_to_path_order():
    grid = nd.unit_grid(16)
    model = build_model(grid, sigma=0.3, x0=1.0)
    ens = nd.simulate_ensemble(model, 6, nd.NoiseSeed(8, 0))
    obs = nd.log_returns(positive_observed_path(16, scale=0.2, seed=2))
    loss = nll_loss(obs, ens.x, 1e-12, ens.alive)
    order = [4, 0, 5, 2, 1, 3]
    shuffled = nll_loss(obs, ens.x[:, order], 1e-12, ens.alive[order])
    assert shuffled == pytest.approx(loss, rel=1e-13)


def test_ensemble_nll_hands_over_one_adjoint_column_per_usable_path():
    # Paths 1 (non-positive) and 3 (diverged) are unusable and get no column;
    # each usable state's adjoint is the central difference of the loss in
    # that state, with the bandwidths pinned as the backward assumes.
    observed = positive_observed_path(16, scale=0.2, seed=1)
    obs = nd.log_returns(observed)
    rng = np.random.default_rng(4)
    x = observed.values[:, None] * np.exp(rng.normal(0.0, 0.05, size=(17, 6)))
    x[7, 1] = -0.5
    alive = np.array([True, True, True, False, True, True])
    usable = np.array([True, False, True, False, True, True])
    xs = x[:, usable]
    h = nd.silverman_bandwidth(np.log(xs[1:] / xs[:-1]))
    loss, valid, adj, _ = _ensemble_nll(obs.r, x, alive, 1e-12, h)
    assert np.array_equal(valid, usable)
    assert adj.shape == (17, 4)
    assert loss == _ensemble_nll(obs.r, xs, np.ones(4, dtype=bool), 1e-12, h)[0]
    for k in range(17):
        for i, j in enumerate(np.flatnonzero(usable)):
            step = 1e-6 * x[k, j]
            bumped = []
            for sign in (1.0, -1.0):
                xb = x.copy()
                xb[k, j] += sign * step
                bumped.append(_ensemble_nll(obs.r, xb, alive, 1e-12, h)[0])
            fd = (bumped[0] - bumped[1]) / (2.0 * step)
            assert adj[k, i] == pytest.approx(fd, rel=1e-5, abs=1e-7), (k, j)


def test_ensemble_nll_keeps_the_fortran_order_of_its_usable_paths():
    # Boolean column indexing copies the usable paths in Fortran order, even
    # when all are usable, and the returns follow it: the bandwidths' std
    # and the density's mean then add each step's 64 samples in sequence.
    # The likelihood must be that of those F-ordered returns, bit for bit;
    # the C-ordered returns, summed pairwise, give other bits.
    rng = np.random.default_rng(9)
    x = np.exp(np.cumsum(rng.normal(0.0, 0.05, size=(101, 64)), axis=0))
    r_obs = rng.normal(0.0, 0.05, size=100)
    loss, valid, adj, _ = _ensemble_nll(r_obs, x, np.ones(64, dtype=bool), 1e-12)
    assert valid.all()
    returns = np.log(x[1:] / x[:-1])
    results = {}
    for order, samples in (("F", np.asfortranarray(returns)), ("C", returns)):
        want_loss, grad, _ = _nll(r_obs, samples, 1e-12)
        want = np.zeros_like(x)
        want[1:] += grad / x[1:]
        want[:-1] -= grad / x[:-1]
        results[order] = (want_loss, want)
    assert loss == results["F"][0] and np.array_equal(adj, results["F"][1])
    assert loss != results["C"][0] or not np.array_equal(adj, results["C"][1])


def test_ensemble_nll_peak_memory_is_a_few_matrices():
    # At train_wide's shape (T = 250, m = 512, 460 paths usable) the
    # likelihood holds the usable paths' states, their returns (whose buffer
    # takes the adjoint's quotients), z (over which the gradient is
    # written), phi and the adjoints: under 4.5 (n + 1, m) matrices.
    rng = np.random.default_rng(6)
    x = np.exp(np.cumsum(rng.normal(0.0, 0.05, size=(251, 512)), axis=0))
    alive = np.ones(512, dtype=bool)
    alive[::10] = False
    r_obs = np.log(x[1:, 1] / x[:-1, 1])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _ensemble_nll(r_obs, x, alive, 1e-12)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * x.nbytes


def test_nll_drops_non_positive_paths():
    observed = positive_observed_path(16, scale=0.2, seed=1)
    obs = nd.log_returns(observed)
    grid = observed.grid
    bad_values = observed.values.copy()
    bad_values[7] = -0.5
    bad = nd.Path(grid, bad_values)
    keep_a = nd.Path(grid, observed.values * 1.1)
    keep_b = nd.Path(grid, observed.values * 0.9)

    with_bad = nll_loss(obs, _values_of([keep_a, bad, keep_b]), floor=1e-12)
    without = nll_loss(obs, _values_of([keep_a, keep_b]), floor=1e-12)
    assert with_bad == without
    # a diverged path is dropped the same way, whatever its values
    dead = _values_of([keep_a, observed, keep_b])
    assert nll_loss(obs, dead, 1e-12, np.array([True, False, True])) == without

    with pytest.raises(TrainingError):
        nll_loss(obs, _values_of([keep_a, bad]), floor=1e-12)


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


@pytest.mark.parametrize("setting", [{"lr": math.nan}, {"lr": math.inf}, {"eps": math.nan},
                                     {"eps": math.inf}, {"eps": 0.0}, {"eps": -1.0}])
def test_adam_rejects_a_non_finite_or_non_positive_setting(setting):
    with pytest.raises(ValueError, match="must be positive and finite"):
        nd.Adam([(2,)], **{"lr": 0.1, **setting})


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
    # NaN fails every comparison, so a `<= 0` check alone lets it through
    for key in ("lr", "kde_floor", "adam_eps"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be positive and finite"):
                nd.TrainConfig(seed=seed, **{key: value})
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
    assert a.records == b.records
    for x, y in zip(a.model.drift_net.arrays(), b.model.drift_net.arrays()):
        assert np.array_equal(x, y)
    assert len(a.records) == 2
    # fresh noise per iteration: consecutive losses differ
    assert a.records[0].loss != a.records[1].loss


def test_patience_zero_runs_exactly_one_iteration():
    observed = positive_observed_path(40, scale=0.1, seed=9)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(4, 0), m=8, max_iters=5,
                         early_stop_patience=0)
    _, state = nd.fit(observed, cfg, init_seed=104, widths=(1, 3, 1))
    assert len(state.records) == 1


def test_best_model_contract_and_monotone_best():
    observed = positive_observed_path(40, scale=0.1, seed=9)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(4, 0), m=8, max_iters=10,
                         early_stop_patience=10)
    best, state = nd.fit(observed, cfg, init_seed=104, widths=(1, 3, 1))
    assert state.warnings == []  # a clean run, so min(losses) is the best
    losses = [rec.loss for rec in state.records]
    assert len(losses) == cfg.max_iters

    running = np.minimum.accumulate(losses)
    assert np.all(np.diff(running) <= 0.0)
    assert state.best_loss == min(losses)

    ens = nd.simulate_ensemble(best, cfg.m, cfg.iteration_seed(state.best_iteration))
    recomputed = nll_loss(nd.log_returns(observed), ens.x, cfg.kde_floor, ens.alive)
    assert recomputed == pytest.approx(state.best_loss, rel=1e-12)


def test_capped_iteration_cannot_become_best():
    # A diffusion far too large drives >20% of paths non-positive: the
    # iteration still takes its step but is barred from the best slot.
    observed = positive_observed_path(40, scale=0.05, seed=123)
    obs = nd.log_returns(observed)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(6, 0), m=32, max_iters=3,
                         early_stop_patience=3)
    model = build_model(observed.grid, x0=float(observed.values[0]), sigma=1.0)
    adam = nd.Adam([a.shape for a in _trainable_arrays(model)], lr=cfg.lr)
    state = nd.TrainState(model=model, adam=adam, best_model=model.copy())
    before = model.diffusion_net.biases[0].copy()

    nd.train_step(state, obs, cfg)

    (rec,) = state.records
    assert rec.capped and not rec.skipped and not rec.eligible
    assert rec.m == 32 and 32 - rec.usable > 0.2 * 32
    assert state.warnings == [
        f"iteration 0: {32 - rec.usable}/32 paths dropped; not eligible as best",
        "no iteration of 1 was eligible as best; returning the initial networks",
    ]
    assert state.best_iteration == -1
    assert state.best_loss == math.inf
    assert len(state.records) - 1 - state.best_iteration == 1  # one toward patience
    assert math.isfinite(rec.loss)
    assert not np.array_equal(model.diffusion_net.biases[0], before)


@pytest.mark.parametrize("n, warned", [(5, False), (4, True)])
def test_iteration_zero_warning_needs_most_later_iterations_capped(n, warned):
    # Iteration 0 is best and two later ones are capped: 2 * 2 == n - 1 of
    # n = 5 is half, not most, of the 4 later iterations; of n = 4 it is most.
    model = build_model(nd.unit_grid(4))
    adam = nd.Adam([a.shape for a in _trainable_arrays(model)], lr=0.01)
    state = nd.TrainState(model=model, adam=adam, best_model=model.copy(), best_iteration=0)
    eligible = nd.IterationRecord(1.0, 8, 8, False, False, 0)
    capped = nd.IterationRecord(0.5, 2, 8, True, False, 0)
    state.records = [eligible, capped, capped] + [eligible] * (n - 3)
    expected = [f"iteration {i}: 6/8 paths dropped; not eligible as best" for i in (1, 2)]
    if warned:
        expected.append(f"no iteration improved on iteration 0: 2 of the {n - 1} later "
                        "iterations dropped too many paths to be eligible; "
                        "returning the initial networks")
    assert state.warnings == expected


def test_fit_warns_when_the_best_iteration_is_mostly_floored():
    # Log-returns with a standard deviation of 2 per step, against an
    # initial ensemble whose returns spread about 0.05: most steps' KDE
    # densities fall to kde_floor, which scores them at -log(kde_floor) and
    # gives them no gradient.  A tame series floors none of its steps.
    wild = positive_observed_path(200, scale=2 * math.sqrt(200), seed=123)
    assert nd.log_returns(wild).r.std() == pytest.approx(2.0, abs=0.01)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(4, 0), m=32, max_iters=3, early_stop_patience=3)
    _, state = nd.fit(wild, cfg, init_seed=104)
    best = state.records[state.best_iteration]
    assert state.best_iteration >= 0 and best.floored > 0.8 * 200
    assert state.warnings[-1] == (
        f"best iteration {state.best_iteration}: {best.floored}/200 steps' densities at the "
        "KDE floor, which scores them and gives them no gradient"
    )

    tame = positive_observed_path(40, scale=0.1, seed=9)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(4, 0), m=8, max_iters=4, early_stop_patience=4)
    _, state = nd.fit(tame, cfg, init_seed=104)
    assert [rec.floored for rec in state.records] == [0] * 4 and state.warnings == []


@pytest.mark.parametrize("floored, warned", [(4, False), (5, True)])
def test_floored_warning_needs_over_a_tenth_of_the_best_iterations_steps(floored, warned):
    # 4 of 40 steps is a tenth, not more; the other iterations' counts are not read.
    model = build_model(nd.unit_grid(40))
    adam = nd.Adam([a.shape for a in _trainable_arrays(model)], lr=0.01)
    state = nd.TrainState(model=model, adam=adam, best_model=model.copy(), best_iteration=1)
    state.records = [nd.IterationRecord(loss, 8, 8, False, False, n)
                     for loss, n in ((2.0, 40), (1.0, floored), (3.0, 40))]
    line = (f"best iteration 1: {floored}/40 steps' densities at the KDE floor, "
            "which scores them and gives them no gradient")
    assert state.warnings == ([line] if warned else [])


def test_train_step_skips_a_non_finite_step(monkeypatch):
    # A NaN in one gradient array: the iteration is recorded as skipped with
    # loss inf, and neither the parameters nor Adam's step count move.
    observed = positive_observed_path(40, scale=0.1, seed=9)
    obs = nd.log_returns(observed)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(4, 0), m=8, max_iters=5,
                         early_stop_patience=5)
    state = nd.init_state(observed, cfg, init_seed=104, widths=(1, 3, 1))
    nd.train_step(state, obs, cfg)
    assert state.best_iteration == 0

    real = nansde.training.loss_and_gradients

    def poisoned(*args, **kwargs):
        result = real(*args, **kwargs)
        result[1]["diffusion"].arrays()[0][0, 0] = np.nan
        return result

    monkeypatch.setattr(nansde.training, "loss_and_gradients", poisoned)
    params = [a.copy() for a in _trainable_arrays(state.model)]
    best_model, steps = state.best_model, state.adam.t
    nd.train_step(state, obs, cfg)

    rec = state.records[1]
    assert rec.skipped and not rec.capped and not rec.eligible
    assert rec.loss == math.inf
    assert state.adam.t == steps == 1
    for a, b in zip(_trainable_arrays(state.model), params):
        assert np.array_equal(a, b)
    assert state.best_iteration == 0 and state.best_model is best_model
    assert state.warnings == ["iteration 1: non-finite loss or gradient; step skipped"]
    best = ioutil.fmt(state.records[0].loss)
    assert ioutil.loss_csv_text(state.records).splitlines()[2] == f"1,inf,{best}"


def test_fit_flags_a_run_with_no_eligible_iteration():
    # The series starts at 0.5 while the initial diffusion is about
    # softplus(0) = 0.69, so every iteration loses more than a fifth of its
    # paths below zero and none can become the best.
    grid = nd.unit_grid(40)
    w = brownian_path_values(grid, nd.NoiseSeed(123, 0))
    observed = nd.Path(grid, 0.5 * np.exp(0.05 * w))
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(6, 0), m=32, max_iters=3,
                         early_stop_patience=3)
    best, state = nd.fit(observed, cfg, init_seed=7, widths=(1, 3, 1))

    assert len(state.records) == 3
    assert state.best_iteration == -1 and state.best_loss == math.inf
    capped = [line for line in state.warnings if "not eligible as best" in line]
    assert len(capped) == 3
    assert state.warnings[-1] == (
        "no iteration of 3 was eligible as best; returning the initial networks"
    )
    # with no eligible iteration, loss.csv's best column stays at the manifest's inf
    rows = ioutil.loss_csv_text(state.records).splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["inf"] * 3
    initial = nd.init_state(observed, cfg, init_seed=7, widths=(1, 3, 1)).model
    for name in best.trainable_names():
        for a, b in zip(best.net(name).arrays(), initial.net(name).arrays()):
            assert np.array_equal(a, b)


def _bench_fbm():
    """The exact fBm of the benchmark's reference module, which drew the inputs below."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    return runpy.run_path(str(path))["fbm"]


def _iteration_zero_fit(patience: int):
    # A rough fBm path shifted to start near its minimum (x0 = 1.01625):
    # after iteration 0 most iterations drop more than a fifth of their 64
    # paths below zero, so the initial networks stay the best.  The first
    # six iterations are those of a 25-iteration run that ends the same way.
    raw = _bench_fbm()(0.2, 1000, np.random.default_rng([8, 1]))
    grid = nd.unit_grid(1000)
    observed = nd.Path(grid, raw + (1.0 - raw.min()))  # the ingest rule's shift
    assert observed.values[0] == pytest.approx(1.01625, abs=5e-6)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(8, 0), m=64, max_iters=6,
                         early_stop_patience=patience)
    return observed, cfg, *nd.fit(observed, cfg, init_seed=8)


@pytest.fixture(scope="module")
def iteration_zero_run():
    return _iteration_zero_fit(patience=6)


def test_fit_flags_a_run_whose_best_stays_at_iteration_zero(iteration_zero_run):
    observed, cfg, best, state = iteration_zero_run

    assert len(state.records) == 6 and state.best_iteration == 0
    capped = [line for line in state.warnings if "not eligible as best" in line]
    assert len(capped) == sum(rec.capped for rec in state.records) > 5 / 2
    assert state.warnings[-1] == (
        f"no iteration improved on iteration 0: {len(capped)} of the 5 later iterations "
        "dropped too many paths to be eligible; returning the initial networks"
    )
    initial = nd.init_state(observed, cfg, init_seed=8).model
    for name in best.trainable_names():
        for a, b in zip(best.net(name).arrays(), initial.net(name).arrays()):
            assert np.array_equal(a, b)


def test_loss_csv_best_column_ignores_ineligible_iterations(iteration_zero_run):
    # Capped iterations 2 to 5 have lower losses than iteration 0, but
    # the best column, like the manifest, stays at iteration 0's loss.  That
    # loss reads 3.4081389437556444 at numpy's default SIMD level on x86-64;
    # its last digits move on the baseline level.
    _, _, _, state = iteration_zero_run
    rows = ioutil.loss_csv_text(state.records).splitlines()[1:]
    assert min(rec.loss for rec in state.records) < state.best_loss
    assert state.best_loss == pytest.approx(3.4081389437556444, rel=1e-12)
    assert [row.split(",")[2] for row in rows] == [ioutil.fmt(state.best_loss)] * 6


def test_fit_stops_on_patience_across_ineligible_iterations():
    # Iterations 1 and 2 are capped: each counts toward patience 2.
    _, _, _, state = _iteration_zero_fit(patience=2)
    assert len(state.records) == 3 and state.best_iteration == 0
    assert [rec.capped for rec in state.records] == [False, True, True]


def test_train_step_errors_when_almost_no_path_survives():
    observed = positive_observed_path(40, scale=0.05, seed=123)
    obs = nd.log_returns(observed)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(6, 0), m=8, max_iters=1,
                         early_stop_patience=1)
    model = build_model(observed.grid, x0=float(observed.values[0]), sigma=40.0)
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
    assert st1.records == st2.records
    for name in best1.trainable_names():
        for a, b in zip(best1.net(name).arrays(), best2.net(name).arrays()):
            assert np.array_equal(a, b)


def test_fit_clamped_keeps_ell2_frozen():
    observed = positive_observed_path(40, scale=0.1, seed=9)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(4, 0), m=8, max_iters=4,
                         early_stop_patience=4)
    best, state = nd.fit(observed, cfg, init_seed=104, widths=(1, 3, 1),
                         clamp_ell2=True)
    # The plain SDE trains drift and diffusion alone: both ells keep their
    # init, and Adam holds moments for the 2 x 4 arrays of the two networks.
    for model in (best, state.model):
        for name, tag in (("ell1", 2), ("ell2", 3)):
            fresh = nd.init_params((1, 3, 1), 104, tag=tag)
            for a, b in zip(model.net(name).arrays(), fresh.arrays()):
                assert np.array_equal(a, b)
    assert len(state.adam.m) == len(state.adam.v) == 8
    _, ell2 = ell_values(best, observed.grid.step_times())
    assert np.array_equal(ell2, np.zeros(observed.grid.n_steps))
