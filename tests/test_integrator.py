"""Euler simulation of the generator, pathwise backpropagation through the
fixed increments, the clamped reduction, and weak convergence on a linear
reference process."""

import math

import numpy as np
import pytest

import nansde as nd
from nansde.integrator import SIGMA_FLOOR, softplus, softplus_inverse
from conftest import affine_net, brownian_model, build_model

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
    assert clamped.trainable_names() == ("drift", "diffusion", "ell1")
    _, ell2 = nd.kernel_values(clamped, grid.step_times())
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
    b, sigma, _, _ = nd.coefficients(m, [1.0, 2.0])
    assert b == pytest.approx([0.5, 0.5])
    assert sigma == pytest.approx([2.0, 2.0], rel=1e-12)
    ell1, ell2 = nd.kernel_values(m, [0.0, 0.5])
    assert ell1 == pytest.approx([1.0, 1.0])
    assert ell2 == pytest.approx([0.7, 0.7])


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def test_degenerate_model_is_shifted_brownian_motion():
    grid = nd.unit_grid(200)
    model = brownian_model(grid, x0=2.0)
    seed = nd.NoiseSeed(31, 0)
    tape = nd.simulate_batch_with_tape(model, 1, seed)

    sigma = nd.coefficients(model, [2.0])[1][0]
    dw = nd.brownian_increments(grid, seed)
    expected = np.empty(grid.n_points)
    expected[0] = 2.0
    for i, inc in enumerate(dw):  # accumulate in simulation order
        expected[i + 1] = expected[i] + sigma * inc
    assert np.array_equal(tape.x[:, 0], expected)
    assert np.array_equal(tape.k[:, 0], np.zeros(grid.n_points))


def test_hand_euler_step():
    # x0=1, dt=0.1, b=0.5, sigma=2, ell1=1, K0=0: with an increment of 0.2
    # the update gives 1 + 0.05 + 0.4 = 1.45.
    grid = nd.TimeGrid(n_steps=1, dt=0.1)
    model = build_model(grid, x0=1.0, drift=(0.0, 0.5), sigma=2.0,
                        ell1=(0.0, 1.0), ell2=(0.0, 0.7))
    b, sigma, _, _ = nd.coefficients(model, [1.0])
    b, sigma = b[0], sigma[0]
    ell1, _ = nd.kernel_values(model, [0.0])
    hand = 1.0 + (b - ell1[0] * sigma * 0.0) * 0.1 + sigma * 0.2
    assert hand == pytest.approx(1.45, rel=1e-12)

    seed = nd.NoiseSeed(12, 0)
    dw = nd.brownian_increments(grid, seed)
    x = nd.simulate_ensemble(model, 1, seed).values_matrix()
    expected = 1.0 + (b - ell1[0] * sigma * 0.0) * 0.1 + sigma * dw[0]
    assert x[1, 0] == pytest.approx(expected, rel=1e-15)


def test_ensemble_columns_match_per_path_streams():
    grid = nd.unit_grid(50)
    model = build_model(grid, drift=(-0.2, 0.1), sigma=0.5, ell1=(0.0, 0.8),
                        ell2=(0.0, 0.6))
    base = nd.NoiseSeed(77, 10)
    ens = nd.simulate_ensemble(model, 6, base)
    assert ens.m == 6
    assert ens.alive.all()
    for j in range(6):
        solo = nd.simulate_ensemble(model, 1, base.child(j))
        assert np.array_equal(ens.values_matrix()[:, j], solo.values_matrix()[:, 0])
    again = nd.simulate_ensemble(model, 6, base)
    assert np.array_equal(ens.values_matrix(), again.values_matrix())
    with pytest.raises(ValueError):
        nd.simulate_ensemble(model, 0, base)


def test_ensemble_terminal_variance_of_brownian_model():
    grid = nd.unit_grid(100)
    model = brownian_model(grid, x0=0.0)
    ens = nd.simulate_ensemble(model, 200, nd.NoiseSeed(5, 0))
    x1 = ens.values_matrix()[-1]
    assert x1.var(ddof=1) == pytest.approx(1.0, rel=0.15)


# ---------------------------------------------------------------------------
# Pathwise gradients
# ---------------------------------------------------------------------------


def test_tape_reproduces_simulation_and_is_single_use():
    grid = nd.unit_grid(30)
    model = build_model(grid, drift=(0.1, 0.0), sigma=0.4, ell1=(0.3, 0.2),
                        ell2=(0.0, 0.5))
    seed = nd.NoiseSeed(2, 0)
    tape = nd.simulate_batch_with_tape(model, 1, seed)
    assert np.array_equal(tape.x, nd.simulate_ensemble(model, 1, seed).values_matrix())

    adj = np.zeros((grid.n_points, 1))
    grads = nd.backpropagate(tape, adj)
    for name in ("drift", "diffusion", "ell1", "ell2"):
        for arr in grads.bundle(name).arrays():
            assert np.array_equal(arr, np.zeros_like(arr))
    with pytest.raises(RuntimeError):
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
    g = nd.backpropagate(tape, adj).bundle("diffusion").b_grads[-1][0]

    h = 1e-6
    bias = model.diffusion_net.biases[-1]
    bias[0] += h
    up = nd.simulate_ensemble(model, 1, seed).values_matrix()[-1, 0]
    bias[0] -= 2 * h
    dn = nd.simulate_ensemble(model, 1, seed).values_matrix()[-1, 0]
    bias[0] += h
    fd = (up - dn) / (2 * h)
    assert g == pytest.approx(fd, rel=1e-5)


def test_pathwise_gradients_match_finite_differences_everywhere():
    # Random small models: gradient of a random linear functional of the
    # path w.r.t. every trainable parameter agrees with central FD to 1e-4.
    grid = nd.unit_grid(12)
    rng = np.random.default_rng(10)
    for trial in range(3):
        model = nd.NansdeModel(
            drift_net=nd.init_params((1, 3, 1), seed=50 + trial, tag=0),
            diffusion_net=nd.init_params((1, 3, 1), seed=50 + trial, tag=1),
            ell1_net=nd.init_params((1, 3, 1), seed=50 + trial, tag=2),
            ell2_net=nd.init_params((1, 3, 1), seed=50 + trial, tag=3),
            grid=grid,
            x0=1.0,
        )
        seed = nd.NoiseSeed(60 + trial, 0)
        coef = rng.standard_normal(grid.n_points)

        def functional():
            return float(coef @ nd.simulate_ensemble(model, 1, seed).values_matrix()[:, 0])

        tape = nd.simulate_batch_with_tape(model, 1, seed)
        grads = nd.backpropagate(tape, coef[:, None])

        for name in model.trainable_names():
            bundle = grads.bundle(name)
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


# ---------------------------------------------------------------------------
# Reductions and reference dynamics
# ---------------------------------------------------------------------------


def test_clamped_model_equals_collapsed_two_term_scheme():
    # With the memory channel clamped to zero the engine must reproduce,
    # bit for bit, the plain dX = b dt + sigma dW loop on the same noise.
    grid = nd.unit_grid(64)
    model = nd.NansdeModel(
        drift_net=nd.init_params((1, 20, 1), seed=7, tag=0),
        diffusion_net=nd.init_params((1, 20, 1), seed=7, tag=1),
        ell1_net=nd.init_params((1, 20, 1), seed=7, tag=2),
        ell2_net=nd.init_params((1, 20, 1), seed=7, tag=3),
        grid=grid,
        x0=1.0,
        clamp_ell2=True,
    )
    seed = nd.NoiseSeed(88, 0)
    path = nd.simulate_ensemble(model, 1, seed).values_matrix()[:, 0]

    dw = nd.brownian_increments(grid, seed)
    x = np.array([1.0])
    collapsed = [1.0]
    for step in range(grid.n_steps):
        b = nd.mlp_forward_batch(model.drift_net, x[:, None])[:, 0]
        sigma = softplus(nd.mlp_forward_batch(model.diffusion_net, x[:, None])[:, 0]) + SIGMA_FLOOR
        x = x + (b - 0.0) * grid.dt + sigma * dw[step]
        collapsed.append(float(x[0]))
    assert np.array_equal(path, np.array(collapsed))


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
        x1 = ens.values_matrix()[-1]
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
    assert np.array_equal(ens.values_matrix(), tape.x)
