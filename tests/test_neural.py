"""Batched MLP forward/backward passes, parameter initialization, and the
text checkpoint format."""

import math

import numpy as np
import pytest

import nansde as nd
from nansde.neural import (
    mlp_batch_backward,
    mlp_forward_batch_cached,
    mlp_input_derivative,
    stacked_forward,
    stacked_layers,
    tanh_slopes,
    zero_gradients,
)
from conftest import reference_forward, unit_adjoint_input_gradient

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


def test_forward_into_destinations_is_the_fresh_forward():
    # The stacked forward writes each layer into the layer's own reused
    # buffer, a hidden layer's tanh over it; each network of a stack of k
    # must read as its own plain forward there, also on a second call that
    # overwrites the first.
    for widths in ((1, 4, 3, 1), (1, 3, 1, 2, 1), (2, 5, 1)):
        rng = np.random.default_rng(4)
        for k in (1, 2, 3):
            nets = tuple(nd.init_params(widths, seed=6, tag=i) for i in range(k))
            layers = stacked_layers(nets, 9)
            for _ in range(2):
                rows = rng.uniform(-2, 2, size=(9, widths[0]))
                head = stacked_forward(layers, rows)
                assert head.shape == (k, 9, widths[-1])
                assert head is layers[-1][3]
                for i, net in enumerate(nets):
                    ref = reference_forward(net, rows)
                    for layer, act in zip(layers[:-1], ref[1:-1]):
                        assert np.array_equal(layer[3][i], act)
                    assert np.array_equal(head[i], ref[-1])


@pytest.mark.parametrize(
    "widths",
    [(1, 1), (1, 3, 1), (1, 20, 1), (1, 2, 2, 1), (1, 5, 4, 1), (1, 3, 1, 2, 1),
     (1, 20, 20, 1), (1, 40, 1)],
)
def test_cached_forward_is_the_reference_bit_for_bit(widths):
    # 144 cases: 8 widths, 6 row counts, 3 seeds, every activation compared.
    for n_rows in (1, 7, 64, 250, 1000, 2000):
        for seed in range(3):
            p = nd.init_params(widths, seed=seed)
            p.biases = [b + 0.1 * (seed + 1) for b in p.biases]
            rows = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n_rows, 1))
            acts = mlp_forward_batch_cached(p, rows)
            ref = reference_forward(p, rows)
            assert len(acts) == len(ref)
            for got, want in zip(acts, ref):
                assert got.shape == want.shape
                assert np.array_equal(got, want), (widths, n_rows, seed)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def _backward_at(p, x, adjoint):
    """Parameter gradients of adjoint * f(x) for one scalar input."""
    acts = mlp_forward_batch_cached(p, [[x]])
    return mlp_batch_backward(p, acts, [adjoint])


def test_backward_hand_value():
    # f(x) = tanh(w x) with w = 1: df/dw at x = 0.5 is x * (1 - tanh^2(x)).
    p = _identity_chain((1, 1, 1))
    g = _backward_at(p, 0.5, 1.0)
    assert g.w_grads[0][0, 0] == pytest.approx(0.3932238664829637, rel=1e-15)
    # head weight grad is the hidden activation, head bias grad is 1
    assert g.w_grads[1][0, 0] == pytest.approx(math.tanh(0.5), rel=1e-15)
    assert g.b_grads[1][0] == 1.0


def test_gradients_match_finite_differences():
    # 100 random (params, x) draws; every parameter gradient and the input
    # derivative must agree with central differences to 1e-6 relative error.
    rng = np.random.default_rng(2024)
    widths_pool = [(1, 3, 1), (1, 2, 2, 1), (1, 5, 1)]
    for draw in range(100):
        widths = widths_pool[draw % len(widths_pool)]
        p = nd.init_params(widths, seed=draw)
        x = float(rng.uniform(-2.0, 2.0))
        g = _backward_at(p, x, 1.0)
        x_grad = mlp_input_derivative(p, mlp_forward_batch_cached(p, [[x]]))

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
        # input derivative
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
        ga = _backward_at(p, 0.3, a)
        gb = _backward_at(p, 0.3, b)
        gab = _backward_at(p, 0.3, a + b)
        for x, y, z in zip(ga.arrays(), gb.arrays(), gab.arrays()):
            assert np.allclose(x + y, z, rtol=1e-12, atol=1e-15)


def test_zero_adjoint_gives_zero_gradients():
    p = nd.init_params((1, 4, 1), seed=2)
    g = _backward_at(p, 1.3, 0.0)
    for arr in g.arrays():
        assert np.array_equal(arr, np.zeros_like(arr))
    z = zero_gradients(p)
    for a, b in zip(g.arrays(), z.arrays()):
        assert a.shape == b.shape


def test_input_derivative_is_the_unit_adjoint_input_gradient():
    # Bit for bit, at every depth, and without reading the output layer.
    rows = np.random.default_rng(7).uniform(-2, 2, size=(40, 1))
    for widths in ((1, 1), (1, 1, 1), (1, 3, 1), (1, 2, 2, 1), (1, 4, 1, 3, 1)):
        p = nd.init_params(widths, seed=len(widths))
        acts = mlp_forward_batch_cached(p, rows)
        unit = unit_adjoint_input_gradient(p, acts)
        derivative = mlp_input_derivative(p, acts[:-1] + [None])
        assert derivative.shape == (40, 1)
        assert np.array_equal(derivative, unit), widths


def test_cached_activations_are_reusable():
    # backpropagate reads one recorded forward twice (the input derivative,
    # then the parameter gradients), so a pass must not alter the cache it
    # reads.
    p = nd.init_params((1, 3, 1), seed=0)
    acts = mlp_forward_batch_cached(p, [[0.1], [-0.4]])
    before = [a.copy() for a in acts]
    d1 = mlp_input_derivative(p, acts)
    g1 = mlp_batch_backward(p, acts, [1.0, -2.0])
    g2 = mlp_batch_backward(p, acts, [1.0, -2.0])
    for a, b in zip(acts, before):
        assert np.array_equal(a, b)
    for a, b in zip(g1.arrays(), g2.arrays()):
        assert np.array_equal(a, b)
    assert np.array_equal(d1, mlp_input_derivative(p, acts))


def _pinned_gate(act, back):
    """(1 - act^2) * back, squared, subtracted and multiplied in this order."""
    gate = np.square(act)
    np.subtract(1.0, gate, out=gate)
    gate *= back
    return gate


def _pinned_back_through(w, delta):
    if w.shape[0] == 1:
        return delta * w[0][None, :]
    return np.einsum("ro,oi->ri", delta, w, optimize=False)


def _pinned_backward(p, acts, delta):
    """The backward pass's arithmetic written out with plain axis sums."""
    w_grads, b_grads = [None] * p.n_layers, [None] * p.n_layers
    for i in range(p.n_layers - 1, -1, -1):
        w = p.weights[i]
        if w.shape[1] == 1:
            w_grads[i] = (delta * acts[i]).sum(axis=0)[:, None]
        else:
            w_grads[i] = np.einsum("ro,ri->oi", delta, acts[i], optimize=False)
        b_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = _pinned_gate(acts[i], _pinned_back_through(w, delta))
    return w_grads + b_grads


def _pinned_input_derivative(p, acts):
    back = p.weights[-1][0][None, :]
    for i in range(p.n_layers - 1, 0, -1):
        back = _pinned_back_through(p.weights[i - 1], _pinned_gate(acts[i], back))
    return np.broadcast_to(back, (acts[0].shape[0], 1))


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_backward_passes_keep_the_bits_of_plain_axis_sums():
    # The passes sum rows with einsum where the delta is at least 2 wide;
    # every gradient, sign of zero included, must be what .sum(axis=0) and
    # the broadcast tanh gate give.  Row counts span pairwise-summation
    # block sizes; some adjoints are +0.0 and -0.0.
    rng = np.random.default_rng(17)
    for widths in ((1, 1), (1, 3, 1), (1, 20, 1), (1, 2, 2, 1), (1, 5, 4, 1)):
        p = nd.init_params(widths, seed=len(widths) + widths[1])
        for n_rows in (1, 2, 7, 4096, 4097):
            rows = rng.uniform(-2.0, 2.0, size=(n_rows, 1))
            adjoints = rng.standard_normal((n_rows, 1))
            adjoints[rng.random(n_rows) < 0.2] = 0.0
            adjoints[rng.random(n_rows) < 0.2] = -0.0
            acts = mlp_forward_batch_cached(p, rows)
            want = _pinned_backward(p, acts, adjoints)
            want_x = _pinned_input_derivative(p, acts)
            got = mlp_batch_backward(p, acts, adjoints)
            for g, w in zip(got.w_grads + got.b_grads, want):
                assert _same_bits(g, w), (widths, n_rows)
            got_x = mlp_input_derivative(p, acts)
            assert got_x.shape == want_x.shape
            assert _same_bits(got_x, want_x), (widths, n_rows)
        # All-zero adjoints of either sign.
        acts = mlp_forward_batch_cached(p, rng.uniform(-2.0, 2.0, size=(7, 1)))
        for zero in (0.0, -0.0):
            adjoints = np.full((7, 1), zero)
            got = mlp_batch_backward(p, acts, adjoints)
            for g, w in zip(got.w_grads + got.b_grads, _pinned_backward(p, acts, adjoints)):
                assert _same_bits(g, w), (widths, zero)


def test_shared_tanh_slopes_keep_the_bits_of_the_unshared_passes():
    # backpropagate forms 1 - a^2 once per hidden layer and hands it to both
    # passes, and the parameter pass takes a 1-wide delta back through its
    # layer as an einsum outer product, which writes +0.0 for -0.0.  Every
    # output, sign of zero included, must be what the per-pass gate and the
    # plain multiply give.  A width-1 hidden layer (1, 1, 1) puts that outer
    # product in both passes; rows of +-1e3 saturate tanh to a zero slope,
    # and some adjoints are +0.0 and -0.0.
    rng = np.random.default_rng(23)
    for widths in ((1, 1), (1, 1, 1), (1, 3, 1), (1, 2, 2, 1)):
        p = nd.init_params(widths, seed=len(widths) + widths[1])
        for n_rows in (1, 7, 13, 4097):
            rows = rng.uniform(-2.0, 2.0, size=(n_rows, 1))
            rows[rng.random(n_rows) < 0.2] = 1e3
            rows[rng.random(n_rows) < 0.2] = -1e3
            adjoints = rng.standard_normal((n_rows, 1))
            adjoints[rng.random(n_rows) < 0.2] = 0.0
            adjoints[rng.random(n_rows) < 0.2] = -0.0
            acts = mlp_forward_batch_cached(p, rows)
            slopes = tanh_slopes(acts)
            assert len(slopes) == len(widths) - 2
            for adj in (adjoints, np.zeros_like(adjoints), -np.zeros_like(adjoints)):
                got = mlp_batch_backward(p, acts, adj, slopes)
                for g, w in zip(got.w_grads + got.b_grads, _pinned_backward(p, acts, adj)):
                    assert _same_bits(g, w), (widths, n_rows)
            got_x = mlp_input_derivative(p, acts, slopes)
            assert _same_bits(got_x, _pinned_input_derivative(p, acts)), (widths, n_rows)


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
    bundle = mlp_batch_backward(p, acts, adjoints)
    derivative = mlp_input_derivative(p, acts)

    ref = zero_gradients(p)
    ref_x = np.empty(16)
    for i, row in enumerate(rows):
        for acc, part in zip(ref.arrays(), _backward_at(p, row[0], adjoints[i]).arrays()):
            acc += part
        ref_x[i] = mlp_input_derivative(p, mlp_forward_batch_cached(p, [row]))[0, 0]

    for a, b in zip(bundle.arrays(), ref.arrays()):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)
    assert derivative.shape == (16, 1)
    assert np.allclose(derivative[:, 0], ref_x, rtol=1e-12, atol=1e-14)


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
