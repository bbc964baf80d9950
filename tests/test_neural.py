"""Batched MLP forward/backward passes, parameter initialization, and the
text checkpoint format."""

import math

import numpy as np
import pytest

import nansde as nd
from nansde.neural import (
    mlp_batch_backward,
    mlp_forward_batch_cached,
    zero_gradients,
)

# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_init_is_deterministic_and_tag_separated():
    a = nd.init_params((1, 20, 1), seed=3, tag=0)
    b = nd.init_params((1, 20, 1), seed=3, tag=0)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)
    c = nd.init_params((1, 20, 1), seed=3, tag=1)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_shapes_biases_and_bounds():
    p = nd.init_params((1, 20, 20, 1), seed=0)
    shapes = [a.shape for a in p.arrays()]
    assert shapes == [(20, 1), (20,), (20, 20), (20,), (1, 20), (1,)]
    for b in p.biases:
        assert np.array_equal(b, np.zeros_like(b))
    for w in p.weights:
        fan_in = w.shape[1]
        assert np.all(np.abs(w) <= math.sqrt(1.0 / fan_in))
    assert p.widths == (1, 20, 20, 1)
    assert p.n_layers == 3


def test_init_and_params_validation():
    with pytest.raises(ValueError):
        nd.init_params((), seed=0)
    with pytest.raises(ValueError):
        nd.init_params((3,), seed=0)
    with pytest.raises(ValueError):
        nd.MlpParams(weights=[np.zeros((2, 1))], biases=[np.zeros(3)])
    with pytest.raises(ValueError):
        nd.MlpParams(
            weights=[np.zeros((2, 1)), np.zeros((1, 3))],
            biases=[np.zeros(2), np.zeros(1)],
        )
    with pytest.raises(ValueError):
        nd.MlpParams(weights=[np.array([[np.nan]])], biases=[np.zeros(1)])


def test_params_copy_is_deep():
    p = nd.init_params((1, 4, 1), seed=1)
    c = p.copy()
    c.weights[0][0, 0] += 1.0
    assert p.weights[0][0, 0] != c.weights[0][0, 0]


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def _identity_chain(widths):
    """All weights 1 (scalar chain), all biases 0."""
    ws = [np.ones((widths[i + 1], widths[i])) for i in range(len(widths) - 1)]
    bs = [np.zeros(widths[i + 1]) for i in range(len(widths) - 1)]
    return nd.MlpParams(ws, bs)


def test_forward_hand_values():
    # One tanh hidden unit, identity head: f(x) = tanh(x).
    p = _identity_chain((1, 1, 1))
    assert nd.mlp_forward_batch(p, [[0.5]])[0, 0] == pytest.approx(0.46211715726000974, rel=1e-15)
    # Pure affine map 2x - 1.
    q = nd.MlpParams([np.array([[2.0]])], [np.array([-1.0])])
    assert nd.mlp_forward_batch(q, [[0.5]])[0, 0] == 0.0
    with pytest.raises(ValueError):
        nd.mlp_forward_batch(p, [[0.5, 0.5]])


def test_forward_stays_finite_and_hidden_activations_bounded():
    p = nd.init_params((1, 8, 8, 1), seed=5)
    acts = mlp_forward_batch_cached(p, [[-1e6], [-10.0], [0.0], [10.0], [1e6]])
    assert np.isfinite(acts[-1]).all()
    for h in acts[1:-1]:
        # tanh rounds to exactly 1.0 once saturated, hence <=
        assert np.all(np.abs(h) <= 1.0)
    # away from saturation the bound is strict
    acts = mlp_forward_batch_cached(p, [[0.7]])
    for h in acts[1:-1]:
        assert np.all(np.abs(h) < 1.0)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def _backward_at(p, x, adjoint):
    """Parameter and input gradients of adjoint * f(x) for one scalar input."""
    acts = mlp_forward_batch_cached(p, [[x]])
    return mlp_batch_backward(p, acts, [adjoint])


def test_backward_hand_value():
    # f(x) = tanh(w x) with w = 1: df/dw at x = 0.5 is x * (1 - tanh^2(x)).
    p = _identity_chain((1, 1, 1))
    g, _ = _backward_at(p, 0.5, 1.0)
    assert g.w_grads[0][0, 0] == pytest.approx(0.3932238664829637, rel=1e-15)
    # head weight grad is the hidden activation, head bias grad is 1
    assert g.w_grads[1][0, 0] == pytest.approx(math.tanh(0.5), rel=1e-15)
    assert g.b_grads[1][0] == 1.0


def test_gradients_match_finite_differences():
    # 100 random (params, x) draws; every parameter and the input gradient
    # must agree with central differences to 1e-6 relative error.
    rng = np.random.default_rng(2024)
    widths_pool = [(1, 3, 1), (1, 2, 2, 1), (1, 5, 1)]
    for draw in range(100):
        widths = widths_pool[draw % len(widths_pool)]
        p = nd.init_params(widths, seed=draw)
        x = float(rng.uniform(-2.0, 2.0))
        g, x_grad = _backward_at(p, x, 1.0)

        def f(params, xv=x):
            return float(nd.mlp_forward_batch(params, [[xv]])[0, 0])

        for arr, garr in zip(p.arrays(), g.arrays()):
            flat, gflat = arr.ravel(), garr.ravel()
            for i in range(flat.size):
                h = 1e-6 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                up = f(p)
                flat[i] = orig - h
                dn = f(p)
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                scale = max(abs(fd), abs(gflat[i]), 1e-10)
                assert abs(fd - gflat[i]) / scale < 1e-6
        # input gradient
        h = 1e-6
        fd_x = (f(p, x + h) - f(p, x - h)) / (2 * h)
        scale = max(abs(fd_x), abs(x_grad[0, 0]), 1e-10)
        assert abs(fd_x - x_grad[0, 0]) / scale < 1e-6


def test_backward_is_linear_in_adjoint():
    p = nd.init_params((1, 6, 1), seed=8)
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = float(rng.standard_normal())
        b = float(rng.standard_normal())
        ga, _ = _backward_at(p, 0.3, a)
        gb, _ = _backward_at(p, 0.3, b)
        gab, _ = _backward_at(p, 0.3, a + b)
        for x, y, z in zip(ga.arrays(), gb.arrays(), gab.arrays()):
            assert np.allclose(x + y, z, rtol=1e-12, atol=1e-15)


def test_zero_adjoint_gives_zero_gradients():
    p = nd.init_params((1, 4, 1), seed=2)
    g, _ = _backward_at(p, 1.3, 0.0)
    for arr in g.arrays():
        assert np.array_equal(arr, np.zeros_like(arr))
    z = zero_gradients(p)
    for a, b in zip(g.arrays(), z.arrays()):
        assert a.shape == b.shape


def test_cached_activations_are_reusable():
    # backpropagate runs two backward passes over one cached forward (input
    # sensitivities, then parameter gradients), so a pass must not alter
    # the cache it reads.
    p = nd.init_params((1, 3, 1), seed=0)
    acts = mlp_forward_batch_cached(p, [[0.1], [-0.4]])
    before = [a.copy() for a in acts]
    g1, x1 = mlp_batch_backward(p, acts, [1.0, -2.0])
    g2, x2 = mlp_batch_backward(p, acts, [1.0, -2.0])
    for a, b in zip(acts, before):
        assert np.array_equal(a, b)
    for a, b in zip(g1.arrays(), g2.arrays()):
        assert np.array_equal(a, b)
    assert np.array_equal(x1, x2)


# ---------------------------------------------------------------------------
# Batches of rows
# ---------------------------------------------------------------------------


def test_batch_forward_matches_per_row_forward():
    p = nd.init_params((1, 5, 1), seed=11)
    rows = np.random.default_rng(3).uniform(-2, 2, size=(50, 1))
    batch = nd.mlp_forward_batch(p, rows)
    single = np.concatenate([nd.mlp_forward_batch(p, row[None, :]) for row in rows])
    assert np.allclose(batch, single, rtol=1e-14, atol=1e-16)


def test_batch_backward_matches_sum_of_single_backwards():
    p = nd.init_params((1, 4, 1), seed=13)
    rng = np.random.default_rng(5)
    rows = rng.uniform(-1.5, 1.5, size=(16, 1))
    adjoints = rng.standard_normal(16)

    acts = mlp_forward_batch_cached(p, rows)
    bundle, x_grads = mlp_batch_backward(p, acts, adjoints)

    ref = zero_gradients(p)
    ref_x = np.empty(16)
    for i, row in enumerate(rows):
        g, x_grad = _backward_at(p, row[0], adjoints[i])
        for acc, part in zip(ref.arrays(), g.arrays()):
            acc += part
        ref_x[i] = x_grad[0, 0]

    for a, b in zip(bundle.arrays(), ref.arrays()):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)
    assert x_grads.shape == (16, 1)
    assert np.allclose(x_grads[:, 0], ref_x, rtol=1e-12, atol=1e-14)


def test_batch_backward_without_param_grads():
    p = nd.init_params((1, 4, 1), seed=13)
    rows = np.linspace(-1, 1, 8).reshape(-1, 1)
    acts = mlp_forward_batch_cached(p, rows)
    bundle, x_grads = mlp_batch_backward(p, acts, np.ones(8), with_param_grads=False)
    assert bundle is None
    assert x_grads.shape == (8, 1)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------


def test_checkpoint_text_roundtrip_is_exact():
    p = nd.init_params((1, 20, 20, 1), seed=99)
    text = nd.params_to_text(p)
    q = nd.params_from_text(text)
    assert q.widths == p.widths
    for a, b in zip(p.arrays(), q.arrays()):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_bad_input():
    p = nd.init_params((1, 3, 1), seed=0)
    text = nd.params_to_text(p)
    with pytest.raises(ValueError):
        nd.params_from_text(text.replace("v1", "v999", 1))
    lines = text.strip().splitlines()
    with pytest.raises(ValueError):
        nd.params_from_text("\n".join(lines[:-2]))
    with pytest.raises(ValueError):
        nd.params_from_text("")
