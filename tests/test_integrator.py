"""Euler simulation of the generator, pathwise backpropagation through the
fixed increments, the clamped reduction, and weak convergence on a linear
reference process."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import nansde as nd
import nansde.integrator as integrator
from nansde.integrator import euler_x_step, sigmoid, softplus
from nansde.noise import memory_integral, na_increments
from nansde.neural import (
    GradientBundle,
    mlp_batch_backward,
    mlp_forward_batch_cached,
    stacked_forward,
    stacked_layers,
)
from conftest import (
    affine_net,
    brownian_model,
    build_model,
    ell_values,
    softplus_inverse,
    state_coefficients,
    unit_adjoint_input_gradient,
)

# ---------------------------------------------------------------------------
# Model construction and scalar helpers
# ---------------------------------------------------------------------------


def test_model_requires_scalar_networks():
    grid = nd.unit_grid(4)
    good = affine_net(0.0, 0.0)
    bad = nd.MlpParams([np.zeros((1, 2))], [np.zeros(1)])
    with pytest.raises(ValueError):
        nd.NansdeModel(bad, good, good.copy(), good.copy(), grid, 1.0)
    with pytest.raises(ValueError):
        nd.NansdeModel(good, good.copy(), good.copy(), good.copy(), grid, np.inf)


def test_model_copy_and_trainable_names():
    grid = nd.unit_grid(4)
    m = build_model(grid, ell2=(0.0, 0.5))
    assert m.trainable_names() == ("drift", "diffusion", "ell1", "ell2")
    clamped = build_model(grid, ell2=(0.0, 0.5), clamp_ell2=True)
    assert clamped.trainable_names() == ("drift", "diffusion")
    _, ell2 = ell_values(clamped, grid.step_times())
    assert np.array_equal(ell2, np.zeros(grid.n_steps))

    c = m.copy()
    c.drift_net.biases[0][0] += 3.0
    assert m.drift_net.biases[0][0] == 0.0


def test_softplus_helpers_are_stable_and_invert():
    assert softplus(800.0) == pytest.approx(800.0, rel=1e-15)
    assert softplus(-800.0) == 0.0
    for y in (1e-3, 0.1, 1.0, 2.0, 50.0, 700.0):
        assert softplus(softplus_inverse(y)) == pytest.approx(y, rel=1e-12)
    x = np.array([-5.0, 0.0, 5.0])
    assert np.all(softplus(x) > 0.0)


def test_value_helpers_eval_the_nets():
    grid = nd.unit_grid(4)
    m = build_model(grid, drift=(0.0, 0.5), sigma=2.0, ell1=(0.0, 1.0),
                    ell2=(0.0, 0.7))
    layers = stacked_layers((m.drift_net, m.diffusion_net), 2)
    heads = stacked_forward(layers, np.array([[1.0], [2.0]]))
    assert heads.shape == (2, 2, 1)
    assert heads[0, :, 0] == pytest.approx([0.5, 0.5])
    assert integrator._sigma(heads[1, :, 0]) == pytest.approx([2.0, 2.0], rel=1e-12)
    ell1, ell2 = ell_values(m, [0.0, 0.5])
    assert ell1 == pytest.approx([1.0, 1.0])
    assert ell2 == pytest.approx([0.7, 0.7])


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _dz(tape):
    """The NA-noise increments of a recorded tape's dW, from ``na_noise``, the
    builder the sweep calls; the tape keeps dW alone."""
    return integrator.na_noise(tape.model, tape.model.grid, tape.dw)[0]


def test_degenerate_model_is_shifted_brownian_motion():
    grid = nd.unit_grid(200)
    model = brownian_model(grid, x0=2.0)
    seed = nd.NoiseSeed(31, 0)
    tape = nd.simulate_batch_with_tape(model, 1, seed)

    sigma = state_coefficients(model, [2.0])[1][0]
    dw = nd.brownian_increments(grid, seed)
    expected = np.empty(grid.n_points)
    expected[0] = 2.0
    for i, inc in enumerate(dw):  # accumulate in simulation order
        expected[i + 1] = expected[i] + sigma * inc
    assert np.array_equal(tape.x[:, 0], expected)
    assert np.array_equal(_dz(tape)[:, 0], dw)


def test_hand_euler_step():
    # x0=1, dt=0.1, b=0.5, sigma=2, ell1=1, K0=0: with an increment of 0.2
    # the update gives 1 + 0.05 + 0.4 = 1.45.
    grid = nd.TimeGrid(n_steps=1, dt=0.1)
    model = build_model(grid, x0=1.0, drift=(0.0, 0.5), sigma=2.0,
                        ell1=(0.0, 1.0), ell2=(0.0, 0.7))
    b, sigma, _, _ = state_coefficients(model, [1.0])
    b, sigma = b[0], sigma[0]
    ell1, _ = ell_values(model, [0.0])
    hand = b * 0.1 + 1.0 + sigma * (0.2 - ell1[0] * 0.0 * 0.1)
    assert hand == pytest.approx(1.45, rel=1e-12)

    seed = nd.NoiseSeed(12, 0)
    dw = nd.brownian_increments(grid, seed)
    x = nd.simulate_ensemble(model, 1, seed).x
    assert x[1, 0] == b * 0.1 + 1.0 + sigma * (dw[0] - ell1[0] * 0.0 * 0.1)


def _x_step(x, b, sigma, dz, dt):
    out, scratch = np.empty(np.shape(dz)), np.empty(np.shape(dz))
    return euler_x_step(x, b, sigma, dz, dt, out, scratch)


def test_euler_step_hand_values():
    # x + b dt + sigma dZ: 1 + 2*0.1 + 0.5*0.4.
    assert _x_step(1.0, 2.0, 0.5, np.array([0.4]), 0.1)[0] == pytest.approx(1.4, abs=1e-15)

    # b = 0 and sigma = 1 move X by dZ = dW - ell1 K dt: 0.3 - 2*1*0.1.
    dz = na_increments(np.array([[0.3]]), np.array([2.0]), np.array([[1.0], [0.0]]), 0.1)
    assert _x_step(0.0, 0.0, 1.0, dz[0], 0.1)[0] == pytest.approx(0.1, abs=1e-15)

    # no drift and no noise: nothing moves.
    assert _x_step(0.7, 0.0, 1.0, np.array([0.0]), 0.1)[0] == 0.7

    # The increments a two-step sweep steps with: K_1 = ell2 dW_0 feeds dZ_1.
    grid = nd.TimeGrid(n_steps=2, dt=0.1)
    model = build_model(grid, ell1=(0.0, 3.0), ell2=(0.0, 0.5))
    seed = nd.NoiseSeed(12, 0)
    tape = nd.simulate_batch_with_tape(model, 1, seed)
    dw, dz = nd.brownian_increments(grid, seed), _dz(tape)
    assert dz[0, 0] == dw[0]
    assert dz[1, 0] == dw[1] - 3.0 * (0.5 * dw[0]) * 0.1


def test_euler_step_broadcasts_in_the_sweep_order():
    # The one-step predictor calls the step on (n_test, 1) states and
    # coefficients against (n_test, m_pred) increments; each entry is the
    # scalar update, bit for bit.
    rng = np.random.default_rng(3)
    x, b, sigma = (rng.standard_normal((5, 1)) for _ in range(3))
    dz = rng.standard_normal((5, 4))
    got = _x_step(x, b, sigma, dz, 0.01)
    for i in range(5):
        for j in range(4):
            want = x[i, 0] + b[i, 0] * 0.01 + sigma[i, 0] * dz[i, j]
            assert got[i, j] == want


def test_ensemble_columns_match_per_path_streams():
    grid = nd.unit_grid(50)
    model = build_model(grid, drift=(-0.2, 0.1), sigma=0.5, ell1=(0.0, 0.8),
                        ell2=(0.0, 0.6))
    base = nd.NoiseSeed(77, 10)
    ens = nd.simulate_ensemble(model, 6, base)
    assert ens.x.shape[1] == 6
    assert ens.alive.all()
    for j in range(6):
        solo = nd.simulate_ensemble(model, 1, base.child(j))
        assert np.array_equal(ens.x[:, j], solo.x[:, 0])
    again = nd.simulate_ensemble(model, 6, base)
    assert np.array_equal(ens.x, again.x)
    with pytest.raises(ValueError):
        nd.simulate_ensemble(model, 0, base)


def test_ensemble_terminal_variance_of_brownian_model():
    grid = nd.unit_grid(100)
    model = brownian_model(grid, x0=0.0)
    ens = nd.simulate_ensemble(model, 200, nd.NoiseSeed(5, 0))
    x1 = ens.x[-1]
    assert x1.var(ddof=1) == pytest.approx(1.0, rel=0.15)


@np.errstate(over="ignore", invalid="ignore")
def _oracle_sweep(model, m, seed):
    """The Euler sweep one step at a time, each network evaluated afresh.

    Fresh new_x/new_k every step and an isfinite-plus-guard divergence test;
    a path's K is zero from the step its K diverges, whatever its X did, and
    a dead path's X is pinned to 1 from the step after its death.  The
    diffusion heads and sigmas each step computed are stacked into (n, m)
    records and its dZ into the (n, m) increments, in the tape's layout.
    Overflow and NaN on a diverging path are expected, so numpy's
    floating-point warnings are off.
    """
    grid = model.grid
    n, dt = grid.n_steps, grid.dt
    dw = np.empty((n, m))
    for j in range(m):
        dw[:, j] = nd.brownian_increments(grid, seed.child(j))
    ell1, ell2 = ell_values(model, grid.step_times())
    x = np.empty((n + 1, m))
    dz = np.empty((n, m))
    x[0] = model.x0
    alive = np.ones(m, dtype=bool)
    k_dead = np.zeros(m, dtype=bool)
    death_step = np.full(m, -1)
    heads, sigmas = [], []
    cur_x, cur_k = x[0].copy(), np.zeros(m)
    for step in range(n):
        b, sigma, _, diffusion_acts = state_coefficients(model, cur_x)
        heads.append(diffusion_acts[-1][:, 0])
        sigmas.append(sigma)
        new_k = cur_k + ell2[step] * dw[step]
        dz[step] = dw[step] - ell1[step] * cur_k * dt
        new_x = cur_x + b * dt + sigma * dz[step]
        guard = integrator.DIVERGENCE_GUARD
        bad_k = ~np.isfinite(new_k) | (np.abs(new_k) > guard)
        bad = ~np.isfinite(new_x) | (np.abs(new_x) > guard) | bad_k
        bad &= alive
        alive[bad] = False
        death_step[bad] = step
        new_x[~alive] = 1.0
        k_dead |= bad_k
        new_k[k_dead] = 0.0
        x[step + 1] = new_x
        cur_x, cur_k = new_x.copy(), new_k.copy()
    return x, dz, alive, death_step, np.stack(heads), np.stack(sigmas)


def _assert_sweep_matches_oracle(model, m, seed):
    """The tape's states, dZ (built from its dW) and deaths equal the oracle's
    whole; its diffusion head record, and the sigma the backward recomputes
    from it, on the live (step, path) pairs: a live column's every step, a
    dead column's steps through its death step.  What a dead column records
    after that is unspecified.  The hidden layers and sigma are not recorded: the gradient
    oracles below check the bits the backward rebuilds them with."""
    x, dz, alive, death_step, head, sigma = _oracle_sweep(model, m, seed)
    tape = nd.simulate_batch_with_tape(model, m, seed)
    plain = nd.simulate_batch_with_tape(model, m, seed, record=False)
    for got in (tape, plain):
        assert np.array_equal(got.x, x)
        assert np.array_equal(got.alive, alive)
        assert np.array_equal(got.death_step, death_step)
    assert np.array_equal(_dz(tape), dz)
    assert not hasattr(tape, "dz") and plain.diffusion_head is None
    n = model.grid.n_steps
    live = np.arange(n)[:, None] <= np.where(alive, n, death_step)
    # A contiguous (n, m) record is what the backward reads as rows without copying.
    assert tape.diffusion_head.flags.c_contiguous
    assert np.array_equal(tape.diffusion_head[live], head[live])
    assert np.array_equal(integrator._sigma(tape.diffusion_head[live]), sigma[live])
    return tape


def _sweep_model(grid, widths, x0=0.8, clamp=False, seed=30):
    nets = [nd.init_params(widths, seed=seed, tag=tag) for tag in (0, 1)]
    nets += [nd.init_params((1, 3, 1), seed=seed, tag=tag) for tag in (2, 3)]
    return nd.NansdeModel(*nets, grid=grid, x0=x0, clamp_ell2=clamp)


def test_sweep_matches_the_step_by_step_oracle_bit_for_bit():
    grid = nd.unit_grid(40)
    seed = nd.NoiseSeed(31, 0)
    for widths in ((1, 1), (1, 3, 1), (1, 20, 1), (1, 2, 2, 1), (1, 5, 4, 1), (1, 3, 1, 2, 1)):
        for clamp in (False, True):
            model = _sweep_model(grid, widths, clamp=clamp)
            _assert_sweep_matches_oracle(model, 16, seed)


def test_model_requires_equal_drift_and_diffusion_widths():
    grid = nd.unit_grid(4)
    nets = [nd.init_params(w, seed=1, tag=t) for t, w in enumerate(((1, 3, 1), (1, 5, 1)))]
    kernels = [nd.init_params((1, 3, 1), seed=1, tag=t) for t in (2, 3)]
    with pytest.raises(ValueError, match="equal widths"):
        nd.NansdeModel(*nets, *kernels, grid, 1.0)
    with pytest.raises(ValueError, match="equal widths"):
        nd.NansdeModel(*nets[::-1], *kernels, grid, 1.0)


def test_sweep_matches_the_oracle_when_one_path_dies(monkeypatch):
    grid = nd.unit_grid(40)
    seed = nd.NoiseSeed(31, 0)
    model = _sweep_model(grid, (1, 3, 1))
    peaks = np.abs(nd.simulate_ensemble(model, 16, seed).x).max(axis=0)
    top, second = np.sort(peaks)[-2:][::-1]
    monkeypatch.setattr(integrator, "DIVERGENCE_GUARD", (top + second) / 2)
    tape = _assert_sweep_matches_oracle(model, 16, seed)
    assert (~tape.alive).sum() == 1
    dead = np.flatnonzero(~tape.alive)[0]
    assert np.all(tape.x[tape.death_step[dead] + 1 :, dead] == 1.0)


def _memory(tape):
    """A recorded tape's K, recomputed from its increments as the sweep builds it."""
    _, ell2 = ell_values(tape.model, tape.model.grid.step_times())
    return memory_integral(ell2, tape.dw)


def test_sweep_kills_a_path_whose_memory_crosses_the_guard_on_the_last_step(monkeypatch):
    # ell1 = 0 keeps X = 1 + W small while K = 50 W grows; the guard sits
    # between a column's last |K| and its earlier peak, far above any |X|.
    grid = nd.unit_grid(40)
    n, seed = grid.n_steps, nd.NoiseSeed(31, 0)
    model = build_model(grid, ell2=(0.0, 50.0))
    free = nd.simulate_batch_with_tape(model, 16, seed)
    free_dz = _dz(free)
    k = np.abs(_memory(free))
    margin = k[-1] - k[:-1].max(axis=0)
    j = np.argmax(margin)
    assert margin[j] > 0.0
    guard = k[-1, j] - margin[j] / 2
    assert np.abs(free.x).max() < guard
    monkeypatch.setattr(integrator, "DIVERGENCE_GUARD", guard)
    tape = _assert_sweep_matches_oracle(model, 16, seed)
    assert not tape.alive[j] and tape.death_step[j] == n - 1
    assert tape.x[n, j] == 1.0
    # Only K_n crossed, and no step reads it: every dZ is the guard-free one.
    assert np.array_equal(_dz(tape), free_dz)


def test_sweep_ignores_the_memory_of_a_path_whose_state_died_first(monkeypatch):
    # With sigma = 100 and ell2 = 50, X = 1 + 100 W crosses the guard before
    # K = 50 W would; the path dies with X, and its K goes on until it crosses
    # too, from where its dZ is its dW.
    grid = nd.unit_grid(40)
    seed = nd.NoiseSeed(31, 0)
    model = build_model(grid, sigma=100.0, ell2=(0.0, 50.0))
    plain = nd.simulate_batch_with_tape(model, 16, seed)
    free, plain_dz = _memory(plain), _dz(plain)
    j = np.argmax(np.abs(free).max(axis=0))
    guard = 0.75 * np.abs(free[:, j]).max()
    monkeypatch.setattr(integrator, "DIVERGENCE_GUARD", guard)
    tape = _assert_sweep_matches_oracle(model, 16, seed)
    step = tape.death_step[j]
    k_would_die = np.flatnonzero(np.abs(free[:, j]) > guard)[0] - 1
    assert 0 <= step < k_would_die
    assert np.all(tape.x[step + 1 :, j] == 1.0)
    dz = _dz(tape)
    assert np.array_equal(dz[: k_would_die + 1, j], plain_dz[: k_would_die + 1, j])
    assert np.array_equal(dz[k_would_die + 1 :, j], tape.dw[k_would_die + 1 :, j])


def test_an_unrecorded_sweep_keeps_no_increments_and_steps_as_a_recorded_one(monkeypatch):
    # Unrecorded, dW waits in rows 1..n of X until the sweep overwrites
    # them, and the tape holds no increments.  Its X is the recorded sweep's
    # bit for bit, also on the paths whose K crossed the guard: from there
    # their dZ is their dW, which the unrecorded sweep reads back before it
    # overwrites it.
    grid = nd.unit_grid(40)
    seed = nd.NoiseSeed(31, 0)
    model = build_model(grid, ell1=(0.0, 0.5), ell2=(0.0, 50.0))
    k = np.abs(_memory(nd.simulate_batch_with_tape(model, 16, seed)))
    guard = np.median(k.max(axis=0))
    monkeypatch.setattr(integrator, "DIVERGENCE_GUARD", guard)
    tape = nd.simulate_batch_with_tape(model, 16, seed)
    plain = nd.simulate_batch_with_tape(model, 16, seed, record=False)
    assert not hasattr(plain, "dz") and plain.dw is None and plain.diffusion_head is None
    assert np.array_equal(plain.x, tape.x)
    assert np.array_equal(plain.death_step, tape.death_step)
    crossed, dz = integrator._first_bad_steps(k, guard), _dz(tape)
    assert 0 < (crossed >= 0).sum() < 16 and np.abs(tape.x).max() < guard
    for j in np.flatnonzero(crossed >= 0):
        r = crossed[j]
        assert 0 < r < grid.n_steps and tape.death_step[j] == r - 1
        assert np.array_equal(dz[r:, j], tape.dw[r:, j])
        assert not np.array_equal(dz[:r, j], tape.dw[:r, j])


def test_first_bad_steps_finds_each_columns_first_crossing():
    nan, inf = np.nan, np.inf
    a = np.array([
        # clean, at +-guard, crosses thrice, NaN, +inf, -inf, crosses in row 0
        [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, -2.5],
        [1.0, -2.0, 3.0, 0.0, inf, 0.0, 0.0],
        [-1.5, 2.0, -5.0, nan, 0.0, 0.0, 0.0],
        [0.5, -2.0, 4.0, 0.0, 0.0, -inf, 0.0],
    ])
    first = integrator._first_bad_steps(a, 2.0)
    assert np.array_equal(first, [-1, -1, 1, 2, 1, 3, 0])
    assert np.array_equal(integrator._first_bad_steps(a[:, :2], 2.0), [-1, -1])


def _overflowing_model(grid):
    # sigma = softplus(1e300 x): a path whose state turns positive gets a
    # finite but enormous sigma, and one step later sigma overflows to inf,
    # so its state turns inf or NaN; negative states keep sigma at the floor.
    return nd.NansdeModel(
        affine_net(0.0, 0.0), affine_net(1e300, 0.0), affine_net(0.0, 1.0),
        affine_net(0.0, 1.0), grid, 0.0,
    )


def test_sweep_marks_a_non_finite_path_dead(monkeypatch):
    # With the guard at the largest double, only an inf or NaN state kills.
    # A diverged path is counted, not announced: the sweep raises no warning.
    monkeypatch.setattr(integrator, "DIVERGENCE_GUARD", np.finfo(float).max)
    grid = nd.unit_grid(10)
    seed = nd.NoiseSeed(5, 0)
    model = _overflowing_model(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tape = _assert_sweep_matches_oracle(model, 16, seed)
    assert tape.alive.any() and not tape.alive.all()
    with np.errstate(over="ignore", invalid="ignore"):
        b, sigma, _, _ = state_coefficients(model, tape.x[:-1].ravel())
    for j in np.flatnonzero(~tape.alive):
        step = tape.death_step[j]
        assert np.isinf(sigma.reshape(tape.x[:-1].shape)[step, j])
        assert np.all(tape.x[step + 1 :, j] == 1.0)
    assert np.isfinite(_dz(tape)).all()

    # A memory state that overflows while X stays finite kills its path too,
    # and from its death on the path steps with its dW.
    k_model = build_model(nd.TimeGrid(n_steps=10, dt=1.0), ell1=(0.0, 1e-300), ell2=(0.0, 1e308))
    tape = _assert_sweep_matches_oracle(k_model, 16, seed)
    assert tape.alive.any() and not tape.alive.all()
    dz = _dz(tape)
    assert np.isfinite(tape.x).all() and np.isfinite(dz).all()
    for j in np.flatnonzero(~tape.alive):
        step = tape.death_step[j]
        assert np.array_equal(dz[step + 1 :, j], tape.dw[step + 1 :, j])


# ---------------------------------------------------------------------------
# Pathwise gradients
# ---------------------------------------------------------------------------


def test_tape_reproduces_simulation_and_is_single_use():
    grid = nd.unit_grid(30)
    model = build_model(grid, drift=(0.1, 0.0), sigma=0.4, ell1=(0.3, 0.2),
                        ell2=(0.0, 0.5))
    seed = nd.NoiseSeed(2, 0)
    tape = nd.simulate_batch_with_tape(model, 1, seed)
    assert np.array_equal(tape.x, nd.simulate_ensemble(model, 1, seed).x)

    adj = np.zeros((grid.n_points, 1))
    grads = nd.backpropagate(tape, adj)
    assert list(grads) == ["drift", "diffusion", "ell1", "ell2"]
    for bundle in grads.values():
        for arr in bundle.arrays():
            assert np.array_equal(arr, np.zeros_like(arr))
    with pytest.raises(ValueError, match="without recording, or it was backpropagated already"):
        nd.backpropagate(tape, adj)


def test_sigma_bias_gradient_matches_finite_differences():
    # Degenerate model; functional F = X_T.  dF/d(sigma bias) via the tape
    # against central differences with the same increments.
    grid = nd.unit_grid(25)
    model = brownian_model(grid, x0=1.0, sigma=0.8)
    seed = nd.NoiseSeed(3, 0)

    tape = nd.simulate_batch_with_tape(model, 1, seed)
    adj = np.zeros((grid.n_points, 1))
    adj[-1, 0] = 1.0
    g = nd.backpropagate(tape, adj)["diffusion"].b_grads[-1][0]

    h = 1e-6
    bias = model.diffusion_net.biases[-1]
    bias[0] += h
    up = nd.simulate_ensemble(model, 1, seed).x[-1, 0]
    bias[0] -= 2 * h
    dn = nd.simulate_ensemble(model, 1, seed).x[-1, 0]
    bias[0] += h
    fd = (up - dn) / (2 * h)
    assert g == pytest.approx(fd, rel=1e-5)


def _fd_model(grid, widths, trial):
    return nd.NansdeModel(
        drift_net=nd.init_params(widths, seed=50 + trial, tag=0),
        diffusion_net=nd.init_params(widths, seed=50 + trial, tag=1),
        ell1_net=nd.init_params(widths, seed=50 + trial, tag=2),
        ell2_net=nd.init_params(widths, seed=50 + trial, tag=3),
        grid=grid,
        x0=1.0,
    )


def _assert_gradients_match_finite_differences(model, seed, coef, trial):
    """Gradient of coef . X on one path w.r.t. every trainable parameter
    agrees with central differences on the same increments to 1e-4."""

    def functional():
        return float(coef @ nd.simulate_ensemble(model, 1, seed).x[:, 0])

    tape = nd.simulate_batch_with_tape(model, 1, seed)
    grads = nd.backpropagate(tape, coef[:, None])

    assert list(grads) == list(model.trainable_names())
    for name in model.trainable_names():
        bundle = grads[name]
        for arr, garr in zip(model.net(name).arrays(), bundle.arrays()):
            flat, gflat = arr.ravel(), garr.ravel()
            for i in range(flat.size):
                h = 1e-6 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                up = functional()
                flat[i] = orig - h
                dn = functional()
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                scale = max(abs(fd), abs(gflat[i]), 1e-8)
                assert abs(fd - gflat[i]) / scale < 1e-4, (trial, name, i)


def test_pathwise_gradients_match_finite_differences_everywhere():
    # Random small models: gradient of a random linear functional of the
    # path w.r.t. every trainable parameter agrees with central FD to 1e-4,
    # for one-hidden-layer, affine and two-hidden-layer networks.
    grid = nd.unit_grid(12)
    rng = np.random.default_rng(10)
    depths = ((1, 3, 1), (1, 3, 1), (1, 3, 1), (1, 1), (1, 3, 3, 1))
    for trial, widths in enumerate(depths):
        model = _fd_model(grid, widths, trial)
        seed = nd.NoiseSeed(60 + trial, 0)
        coef = rng.standard_normal(grid.n_points)
        _assert_gradients_match_finite_differences(model, seed, coef, trial)


def test_pathwise_gradients_match_finite_differences_across_blocks(monkeypatch):
    # Five (step, path) rows per block split the one-path, 12-step tape into
    # blocks of steps [10, 12), [5, 10), [0, 5): a wrong xbar carry across a
    # block boundary breaks the gradient.  The last trial above, in blocks.
    monkeypatch.setattr(integrator, "BACKWARD_BLOCK_ROWS", 5)
    grid = nd.unit_grid(12)
    rng = np.random.default_rng(10)
    for _ in range(5):
        coef = rng.standard_normal(grid.n_points)
    model = _fd_model(grid, (1, 3, 3, 1), 4)
    _assert_gradients_match_finite_differences(model, nd.NoiseSeed(64, 0), coef, 4)


def _recomputed_gradients(tape, x_adjoints, columns=None, block_steps=None):
    """Oracle: the pathwise gradients with the drift and diffusion networks
    evaluated afresh on the taped states, the ell networks on the step
    times, and b' and sigma' taken from unit-adjoint backward passes.  Takes
    the adjoints as the backward does, one column per participating path,
    and reads the tape without taking its records.

    With ``block_steps`` the drift and diffusion parameter passes run on
    blocks of that many steps, [0, s), [s, 2s), ..., and the per-block
    bundles are added last block first; by default one block holds every step."""
    model = tape.model
    cols = np.flatnonzero(tape.alive if columns is None else columns)
    n, dt = model.grid.n_steps, model.grid.dt
    a = np.asarray(x_adjoints, dtype=float)
    xs, dzs, dws = tape.x[:, cols], _dz(tape)[:, cols], tape.dw[:, cols]
    ell1, ell2 = ell_values(model, model.grid.step_times())
    ks = np.cumsum(np.vstack((np.zeros((1, cols.size)), ell2[:, None] * dws)), axis=0)
    mv = cols.size
    ell1 = ell1[:, None]

    _, sigma, drift_acts, diff_acts = state_coefficients(model, xs[:-1])
    b_prime = unit_adjoint_input_gradient(model.drift_net, drift_acts).reshape(n, mv)
    gate = sigmoid(diff_acts[-1][:, 0])
    sigma = sigma.reshape(n, mv)
    raw_prime = unit_adjoint_input_gradient(model.diffusion_net, diff_acts)
    sigma_prime = (gate * raw_prime[:, 0]).reshape(n, mv)

    gain = 1.0 + b_prime * dt + sigma_prime * dzs
    xbar = np.empty((n + 1, mv))
    xbar[n] = a[n]
    for step in range(n - 1, -1, -1):
        xbar[step] = a[step] + xbar[step + 1] * gain[step]
    k_direct = xbar[1:] * (-ell1 * sigma * dt)
    suffix = np.cumsum(k_direct[::-1], axis=0)[::-1]
    kbar_next = np.vstack((suffix[1:], np.zeros((1, mv))))

    block = n if block_steps is None else block_steps
    drift = diffusion = None
    for s0 in range(block * ((n - 1) // block), -1, -block):
        s1 = min(s0 + block, n)
        rows = slice(s0 * mv, s1 * mv)
        part = mlp_batch_backward(model.drift_net, [act[rows] for act in drift_acts],
                                  (xbar[s0 + 1 : s1 + 1] * dt).reshape(-1, 1))
        drift = part if drift is None else _bundle_sum(drift, part)
        sigma_adj = (xbar[s0 + 1 : s1 + 1] * dzs[s0:s1]).reshape(-1) * gate[rows]
        part = mlp_batch_backward(model.diffusion_net, [act[rows] for act in diff_acts],
                                  sigma_adj.reshape(-1, 1))
        diffusion = part if diffusion is None else _bundle_sum(diffusion, part)
    grads = {"drift": drift, "diffusion": diffusion}
    if model.clamp_ell2:  # the plain SDE: the ell networks are not trained
        return grads
    ell1_adj = (xbar[1:] * (-sigma * ks[:-1] * dt)).sum(axis=1).reshape(-1, 1)
    ell2_adj = (kbar_next * dws).sum(axis=1).reshape(-1, 1)
    t_rows = model.grid.step_times()[:, None]
    for name, adj in (("ell1", ell1_adj), ("ell2", ell2_adj)):
        acts = mlp_forward_batch_cached(model.net(name), t_rows)
        grads[name] = mlp_batch_backward(model.net(name), acts, adj)
    return grads


def _bundle_sum(total, part):
    return GradientBundle([t + p for t, p in zip(total.w_grads, part.w_grads)],
                          [t + p for t, p in zip(total.b_grads, part.b_grads)])


def test_rebuilt_activations_give_the_recomputed_gradients_bit_for_bit(monkeypatch):
    # A guard of 1.5 lets some paths die mid-run, pinned to placeholders,
    # while others cross zero: training excludes both kinds of column.
    monkeypatch.setattr(integrator, "DIVERGENCE_GUARD", 1.5)
    grid = nd.unit_grid(40)
    rng = np.random.default_rng(21)
    for widths in ((1, 1), (1, 3, 1), (1, 2, 2, 1)):
        for clamp in (False, True):
            model = nd.NansdeModel(
                *(nd.init_params(widths, seed=30, tag=tag) for tag in range(4)),
                grid=grid, x0=0.8, clamp_ell2=clamp,
            )
            seed = nd.NoiseSeed(31, 0)
            probe = nd.simulate_batch_with_tape(model, 16, seed)
            usable = probe.alive & (probe.x > 0.0).all(axis=0)
            assert not probe.alive.all(), widths
            assert (probe.alive & ~usable).any(), widths
            assert usable.any(), widths
            adj = rng.standard_normal(probe.x.shape)
            for columns in (None, usable):
                tape = nd.simulate_batch_with_tape(model, 16, seed)
                part = adj[:, tape.alive if columns is None else columns]
                expected = _recomputed_gradients(tape, part, columns)
                grads = nd.backpropagate(tape, part, columns=columns)
                assert list(grads) == list(expected) == list(model.trainable_names())
                for name in expected:
                    for got, want in zip(grads[name].arrays(), expected[name].arrays()):
                        assert np.array_equal(got, want), (widths, clamp, name)


@pytest.mark.parametrize("widths", [(1, 20, 1), (1, 3, 2, 1)])
def test_rebuilt_activations_keep_their_bits_at_a_ragged_simd_tail(monkeypatch, widths):
    # The sweep runs the networks on 13 rows, the backward rebuilds them on
    # blocks of 3 steps, 39 rows and a ragged 13, and the oracle on all 520
    # rows at once.  At widths 3 and 2 a layer's 2 x rows x width elements
    # are no multiple of the 8 float64 lanes of an AVX-512 register, so
    # numpy's multiply, add and tanh end in a partial vector in the sweep
    # and in both blocks.
    monkeypatch.setattr(integrator, "BACKWARD_BLOCK_ROWS", 3 * 13)
    grid = nd.unit_grid(40)
    model = nd.NansdeModel(
        *(nd.init_params(widths, seed=30, tag=tag) for tag in range(4)), grid=grid, x0=0.8,
    )
    tape = nd.simulate_batch_with_tape(model, 13, nd.NoiseSeed(31, 0))
    assert tape.alive.all()
    adj = np.random.default_rng(22).standard_normal(tape.x.shape)
    expected = _recomputed_gradients(tape, adj, block_steps=3)
    grads = nd.backpropagate(tape, adj)
    assert list(grads) == list(expected) == list(integrator.NET_NAMES)
    for name in expected:
        for got, want in zip(grads[name].arrays(), expected[name].arrays()):
            assert np.array_equal(got, want), (widths, name)


def test_blocked_backward_is_the_recomputed_gradients_added_block_by_block(monkeypatch):
    # Three steps per block split the 40-step tapes of the oracle above into
    # 14 blocks, the last one ragged; the oracle's per-block bundles, added
    # last block first, must be the backward pass's gradients bit for bit.
    monkeypatch.setattr(integrator, "DIVERGENCE_GUARD", 1.5)
    grid = nd.unit_grid(40)
    rng = np.random.default_rng(21)
    differs_from_one_block = False
    for widths in ((1, 1), (1, 3, 1), (1, 2, 2, 1)):
        for clamp in (False, True):
            model = nd.NansdeModel(
                *(nd.init_params(widths, seed=30, tag=tag) for tag in range(4)),
                grid=grid, x0=0.8, clamp_ell2=clamp,
            )
            seed = nd.NoiseSeed(31, 0)
            probe = nd.simulate_batch_with_tape(model, 16, seed)
            usable = probe.alive & (probe.x > 0.0).all(axis=0)
            assert (probe.alive & ~usable).any() and usable.any(), widths
            adj = rng.standard_normal(probe.x.shape)
            for columns in (None, usable):
                part = adj[:, probe.alive if columns is None else columns]
                monkeypatch.setattr(integrator, "BACKWARD_BLOCK_ROWS", 3 * part.shape[1])
                tape = nd.simulate_batch_with_tape(model, 16, seed)
                expected = _recomputed_gradients(tape, part, columns, block_steps=3)
                one_block = _recomputed_gradients(tape, part, columns)
                grads = nd.backpropagate(tape, part, columns=columns)
                assert list(grads) == list(expected) == list(model.trainable_names())
                for name in expected:
                    for got, want, whole in zip(grads[name].arrays(),
                                                expected[name].arrays(),
                                                one_block[name].arrays()):
                        assert np.array_equal(got, want), (widths, clamp, name)
                        differs_from_one_block |= not np.array_equal(got, whole)
    # The order of the block sums is visible in the bits.
    assert differs_from_one_block


_BAD_COLUMNS = {
    "index array": "columns must be a boolean mask of live paths, shape \\(16,\\)$",
    "integer mask": "columns must be a boolean mask",
    "short mask": "columns must be a boolean mask",
    "long mask": "columns must be a boolean mask",
    "diverged path": "columns must be a boolean mask",
    "adjoint width": "adjoint shape \\(41, 3\\) does not match the columns' \\(41, 2\\)$",
    "no column": "no surviving columns",
}


@pytest.mark.parametrize("case", _BAD_COLUMNS)
def test_backward_refuses_bad_columns_and_leaves_the_tape_usable(monkeypatch, case):
    # `columns` is an (m,) boolean mask of live paths, and the adjoints have
    # one column per path in it.  A refusal comes before the backward takes
    # the tape's records, so the same tape then gives a fresh tape's
    # gradients bit for bit.
    monkeypatch.setattr(integrator, "DIVERGENCE_GUARD", 1.5)
    grid = nd.unit_grid(40)
    model = nd.NansdeModel(
        *(nd.init_params((1, 3, 1), seed=30, tag=tag) for tag in range(4)), grid=grid, x0=0.8,
    )
    seed = nd.NoiseSeed(31, 0)
    tape = nd.simulate_batch_with_tape(model, 16, seed)
    live, dead = np.flatnonzero(tape.alive), np.flatnonzero(~tape.alive)
    assert live.size >= 2 and dead.size >= 1
    mask = np.zeros(16, dtype=bool)
    mask[live[:2]] = True
    with_dead = mask.copy()
    with_dead[dead[0]] = True
    adj = np.random.default_rng(5).standard_normal((grid.n_points, 3))
    columns, x_adjoints = {
        "index array": (live[:2], adj[:, :2]),
        "integer mask": (mask.astype(int), adj[:, :2]),
        "short mask": (mask[:8], adj[:, :2]),
        "long mask": (np.append(mask, True), adj),
        "diverged path": (with_dead, adj),
        "adjoint width": (mask, adj),
        "no column": (np.zeros(16, dtype=bool), adj[:, :0]),
    }[case]
    with pytest.raises(ValueError, match=_BAD_COLUMNS[case]):
        nd.backpropagate(tape, x_adjoints, columns=columns)
    assert tape.diffusion_head is not None
    grads = nd.backpropagate(tape, adj[:, :2], columns=mask)
    fresh = nd.backpropagate(nd.simulate_batch_with_tape(model, 16, seed), adj[:, :2], columns=mask)
    assert list(grads) == list(fresh) == list(integrator.NET_NAMES)
    for name in fresh:
        for got, want in zip(grads[name].arrays(), fresh[name].arrays()):
            assert np.array_equal(got, want), name


def test_backward_peak_memory_is_block_sized():
    # A train-sized tape (width 20, T=250, m=512) with a column mask: the
    # backward pass holds its whole-grid adjoints and block-sized
    # temporaries, not (n m, width) temporaries (about 47 matrices).
    grid = nd.unit_grid(250)
    m = 512
    model = nd.NansdeModel(
        *(nd.init_params((1, 20, 1), seed=3, tag=tag) for tag in range(4)),
        grid=grid, x0=1.0,
    )
    tape = nd.simulate_batch_with_tape(model, m, nd.NoiseSeed(4, 0))
    columns = tape.alive.copy()
    columns[::10] = False
    adj = np.ones((grid.n_points, columns.sum()))
    matrix = grid.n_points * m * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nd.backpropagate(tape, adj, columns=columns)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # Its whole-grid arrays are K and (n, 1) ell adjoints; x, the head and
    # dW are read a block at a time, sigma and dZ are rebuilt per block (dZ
    # over the block's K rows), and xbar and kbar carry one row from block
    # to block.  The first layer's weights are repeated over the mv paths
    # only, not over a block's rows.
    assert peak < 6 * matrix


def test_backward_recomputes_the_sweeps_sigma_at_a_ragged_simd_tail(monkeypatch):
    # The tape records the diffusion head, not sigma.  The sweep takes
    # sigma of 13 heads a step; the backward of blocks of 3 steps, a ragged
    # 13 rows and then 39, none a multiple of the 8 float64 lanes of an
    # AVX-512 register.  Each element must be the sweep's, bit for bit.
    monkeypatch.setattr(integrator, "BACKWARD_BLOCK_ROWS", 3 * 13)
    sigma, calls = integrator._sigma, []

    def spy(raw, out=None):
        calls.append(sigma(raw, out).copy())
        return calls[-1]

    monkeypatch.setattr(integrator, "_sigma", spy)
    grid = nd.unit_grid(40)
    model = nd.NansdeModel(
        *(nd.init_params((1, 20, 1), seed=30, tag=tag) for tag in range(4)), grid=grid, x0=0.8,
    )
    tape = nd.simulate_batch_with_tape(model, 13, nd.NoiseSeed(31, 0))
    assert tape.alive.all()
    swept = np.stack(calls)
    calls.clear()
    nd.backpropagate(tape, np.ones_like(tape.x))
    assert [c.size for c in calls] == [13] + [39] * 13
    assert np.array_equal(np.concatenate([c.reshape(-1, 13) for c in calls[::-1]]), swept)


def test_backward_rebuilds_the_sweeps_dz_at_a_ragged_simd_tail(monkeypatch):
    # The tape records dW, not dZ.  The sweep writes dZ over K's whole
    # (40, 13) matrix; the backward over each block's K rows, a ragged 1 step
    # and then 3 steps of the participating columns: 13 and 39 elements with
    # every column live, 12 and 36 with one column killed through its K,
    # which the backward gathers away.  None is a multiple of the 8 float64
    # lanes of an AVX-512 register.  Every block's dZ must be the sweep's,
    # bit for bit.
    monkeypatch.setattr(integrator, "BACKWARD_BLOCK_ROWS", 3 * 13)
    increments, calls = integrator.na_increments, []

    def spy(*args):
        calls.append(increments(*args).copy())
        return calls[-1]

    monkeypatch.setattr(integrator, "na_increments", spy)
    grid = nd.unit_grid(40)
    model = nd.NansdeModel(
        *(nd.init_params((1, 20, 1), seed=30, tag=tag) for tag in (0, 1)),
        affine_net(0.0, 0.05), affine_net(0.0, 50.0), grid=grid, x0=0.8,
    )
    seed = nd.NoiseSeed(31, 0)
    peaks = np.abs(_memory(nd.simulate_batch_with_tape(model, 13, seed))).max(axis=0)
    top, second = np.sort(peaks)[-2:][::-1]
    for guard, killed in ((integrator.DIVERGENCE_GUARD, 0), ((top + second) / 2, 1)):
        monkeypatch.setattr(integrator, "DIVERGENCE_GUARD", guard)
        calls.clear()
        tape = nd.simulate_batch_with_tape(model, 13, seed)
        assert (~tape.alive).sum() == killed and np.abs(tape.x).max() < guard
        (swept,) = calls
        calls.clear()
        mv = 13 - killed
        nd.backpropagate(tape, np.ones((grid.n_points, mv)))
        assert [c.size for c in calls] == [mv] + [3 * mv] * 13
        assert np.array_equal(np.concatenate(calls[::-1]), swept[:, tape.alive])


def test_evaluation_records_nothing_and_backward_frees_the_records():
    # tracemalloc sees numpy's buffers.  A width-20 model's tape records the
    # diffusion head: one (n, m) matrix that only a backward pass may hold.
    # Sigma is recomputed from it, and the hidden layers are rebuilt, never
    # recorded: one (n, m, width) record of them would be 20 more matrices.
    # A clamped model has no K, so its sweeps have tighter bounds.
    grid = nd.unit_grid(500)
    m = 64
    matrix = grid.n_points * m * 8
    records = grid.n_steps * m * 8
    for clamp, ensemble_bound, sweep_bound in ((False, 2.75, 5), (True, 1.5, 3.5)):
        model = nd.NansdeModel(
            *(nd.init_params((1, 20, 1), seed=3, tag=tag) for tag in range(4)),
            grid=grid, x0=1.0, clamp_ell2=clamp,
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ensemble = nd.simulate_ensemble(model, m, nd.NoiseSeed(4, 0))
            # x, which holds dW until the sweep overwrites it, and K with dZ
            # over its first rows: one more whole (n, m) array breaks this.
            # A clamped sweep steps on the dW in x's rows.
            assert tracemalloc.get_traced_memory()[1] - base < ensemble_bound * matrix, clamp
            # Once returned, the tape holds x alone: a dZ would keep all of K.
            assert tracemalloc.get_traced_memory()[0] - base < 1.25 * matrix
            del ensemble

            tracemalloc.reset_peak()
            tape = nd.simulate_batch_with_tape(model, m, nd.NoiseSeed(4, 0))
            held = tracemalloc.get_traced_memory()[0]
            # x, dW and the head record, and no more: K, with the sweep's dZ
            # over its rows, is freed when the sweep returns.
            assert 3.25 * matrix > held - base > records
            assert tracemalloc.get_traced_memory()[1] - base < sweep_bound * matrix, clamp
            nd.backpropagate(tape, np.ones_like(tape.x))
            assert held - tracemalloc.get_traced_memory()[0] > 0.99 * records
        finally:
            tracemalloc.stop()
        assert tape.diffusion_head is None
    with pytest.raises(ValueError):
        nd.backpropagate(nd.simulate_batch_with_tape(model, 2, nd.NoiseSeed(4, 0), record=False),
                         np.ones((grid.n_points, 2)))


# ---------------------------------------------------------------------------
# Reductions and reference dynamics
# ---------------------------------------------------------------------------


def test_clamped_model_runs_no_memory_channel(monkeypatch):
    # Under the clamp the model is the plain SDE (criterion 5(a) checks its
    # bits): dZ is dW itself, no K dies, and neither the sweep nor the
    # backward runs an ell network.  The unclamped model runs both ells
    # forward and backward through the same spies.
    runs = []

    def spy(name):
        real = getattr(integrator, name)

        def wrapper(params, *args, **kwargs):
            runs.append((name, params))
            return real(params, *args, **kwargs)
        return wrapper

    for name in ("mlp_forward_batch", "mlp_forward_batch_cached", "mlp_batch_backward"):
        monkeypatch.setattr(integrator, name, spy(name))
    grid = nd.unit_grid(30)
    seed = nd.NoiseSeed(88, 0)
    for clamp in (True, False):
        model = nd.NansdeModel(
            *(nd.init_params((1, 20, 1), seed=7, tag=tag) for tag in range(4)),
            grid=grid, x0=1.0, clamp_ell2=clamp,
        )
        dw = np.stack([nd.brownian_increments(grid, seed.child(j)) for j in range(5)], axis=1)
        dz, k_bad = integrator.na_noise(model, grid, dw)
        assert (dz is dw) == clamp
        assert np.array_equal(k_bad, np.full(5, -1))
        runs.clear()
        tape = nd.simulate_batch_with_tape(model, 5, seed)
        grads = nd.backpropagate(tape, np.ones_like(tape.x))
        ells = {name for name, params in runs
                if params is model.ell1_net or params is model.ell2_net}
        assert list(grads) == list(model.trainable_names())
        if clamp:
            assert ells == set() and list(grads) == ["drift", "diffusion"]
        else:
            assert ells == {"mlp_forward_batch", "mlp_forward_batch_cached", "mlp_batch_backward"}


def test_ou_weak_convergence_as_dt_halves():
    # Linear reference: dX = -X dt + dW from x0 = 1.  The second moment at
    # t=1 approaches 0.5 + 0.5 e^{-2}; the Euler error must shrink
    # monotonically as dt halves and stay within 3 MC standard errors of
    # the exact discrete-scheme moment.
    x0 = 1.0
    target = 0.5 * (1 - math.exp(-2.0)) + x0**2 * math.exp(-2.0)
    m = 10_000
    errors = []
    for n in (50, 100, 200):
        grid = nd.unit_grid(n)
        model = build_model(grid, x0=x0, drift=(-1.0, 0.0), sigma=1.0)
        ens = nd.simulate_ensemble(model, m, nd.NoiseSeed(77, 0))
        x1 = ens.x[-1]
        emp = float((x1 * x1).mean())

        dt = grid.dt
        a = (1.0 - dt) ** (2 * n)
        discrete = x0**2 * a + dt * (1.0 - a) / (1.0 - (1.0 - dt) ** 2)
        se = (x1 * x1).std(ddof=1) / math.sqrt(m)
        assert abs(emp - discrete) < 3 * se
        errors.append(abs(emp - target))
    assert errors[0] > errors[1] > errors[2]


def test_divergence_is_reported_with_step_and_path():
    grid = nd.TimeGrid(n_steps=5, dt=0.1)
    runaway = build_model(grid, drift=(0.0, 1e14), sigma=1.0)
    # every path leaves the admissible region in step 0: masked, not fatal
    tape = nd.simulate_batch_with_tape(runaway, 3, nd.NoiseSeed(1, 0))
    assert not tape.alive.any()
    assert np.all(tape.death_step == 0)
    assert np.all(tape.x[1:] == 1.0)

    ens = nd.simulate_ensemble(runaway, 3, nd.NoiseSeed(1, 0))
    assert not ens.alive.any()
    assert np.array_equal(ens.x, tape.x)
