"""Small tanh multilayer perceptrons with reverse-mode differentiation.

A network is a list of affine layers; tanh is applied after every layer
except the last, which stays affine so outputs are unbounded.  Every pass
maps a whole (rows, n_in) matrix of inputs at once.  The one forward pass
runs a stack of equal-width networks and keeps their activations; a backward
pass over them yields exact gradients of ``sum_r <adjoint_r, output_r>``
with respect to every weight and bias, and a second pass the per-row
derivative of a scalar network.

All contractions go through element-wise broadcasting, axis sums, or
un-optimized ``einsum`` — never a BLAS call — so results are bitwise
reproducible regardless of how the host's BLAS was built or how many
threads it uses.  The backward pass sums over rows with single ``einsum``
contractions wherever the summed delta is at least 2 wide: they add the rows
in sequence, as ``.sum(axis=0)`` does on such a matrix, but without its
strided walk.  A 1-wide delta is a contiguous column that ``.sum(axis=0)``
adds pairwise, so its sums stay ``.sum(axis=0)``.

Parameter files are plain text: a format tag, the layer widths, then each
layer's weight matrix (row-major) and bias vector at full precision.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .rng import init_generator

CHECKPOINT_TAG = "nansde-mlp v1"


@dataclass
class MlpParams:
    """Per-layer weights (n_out, n_in) and biases (n_out,)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("need one bias vector per weight matrix")
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        prev_out = None
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} disagree")
            if prev_out is not None and w.shape[1] != prev_out:
                raise ValueError(
                    f"layer {i}: expects {w.shape[1]} inputs but layer {i - 1} "
                    f"produces {prev_out}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: parameters must be finite")
            prev_out = w.shape[0]

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def arrays(self) -> list[np.ndarray]:
        """All parameter tensors in a fixed order (weights then bias, per layer)."""
        return [a for pair in zip(self.weights, self.biases) for a in pair]

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_params(widths, seed: int, tag: int = 0) -> MlpParams:
    """Uniform fan-in initialization: W ~ U(-sqrt(1/n_in), sqrt(1/n_in)), b = 0.

    ``tag`` separates several networks drawn from one seed; the same
    (widths, seed, tag) always produces the same parameters.
    """
    widths = tuple(int(n) for n in widths)
    if len(widths) < 2:
        raise ValueError(f"need at least input and output widths, got {widths}")
    if any(n < 1 for n in widths):
        raise ValueError(f"layer widths must be positive, got {widths}")
    gen = init_generator(seed, tag)
    weights, biases = [], []
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(1.0 / n_in)
        weights.append(gen.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return MlpParams(weights, biases)


@dataclass
class GradientBundle:
    """Gradients shaped like their source MlpParams."""

    w_grads: list[np.ndarray]
    b_grads: list[np.ndarray]

    def arrays(self) -> list[np.ndarray]:
        return [a for pair in zip(self.w_grads, self.b_grads) for a in pair]

    def all_finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.arrays())


def stacked_layers(nets, m: int, steps: int = 1) -> list[tuple]:
    """A tuple of k networks of equal widths, stacked to run on steps x m rows at once.

    Each layer's weights and biases are stacked along a leading axis of k.  A
    layer with a 1-wide input is a broadcast multiply; the first such layer
    has its weights and biases repeated over the m rows and multiply-adds on
    a (k, steps, m, width) view of its buffer, broadcast over the steps, so
    its inner loops run over whole contiguous m-row arrays.  A wider input
    goes through one un-optimized einsum contraction (the first layer's
    (rows, n_in) input is shared by all k).  A layer holds a reused
    (k, steps m, width) buffer, which a hidden layer's tanh overwrites,
    whether it is hidden, and the view of the buffer its multiply-add runs on.
    """
    widths = nets[0].widths
    layers = []
    for j in range(len(widths) - 1):
        w = np.stack([net.weights[j] for net in nets])  # (k, n_out, n_in)
        bias = np.stack([net.biases[j] for net in nets])[:, None, :]
        z = np.empty((len(nets), steps * m, widths[j + 1]))
        view = z
        if w.shape[2] > 1:
            subscripts = "ri,koi->kro" if j == 0 else "kri,koi->kro"
        else:
            subscripts = None
            w = w.transpose(0, 2, 1)
            if j == 0:
                w = np.repeat(w, m, axis=1)[:, None]
                bias = np.repeat(bias, m, axis=1)[:, None]
                view = z.reshape(len(nets), steps, m, -1)
        layers.append((subscripts, w, bias, z, j < len(widths) - 2, view))
    return layers


def stacked_forward(layers: list[tuple], h: np.ndarray) -> np.ndarray:
    """The (k, rows, n_out) outputs of :func:`stacked_layers` on (rows, n_in)
    inputs, in the last layer's buffer; each hidden layer's activations stay
    in its own.

    A 1-wide input is copied across the layer's width and multiplied in
    place, two passes that numpy runs over whole contiguous arrays; each
    element is still the one IEEE product of input and weight.
    """
    for subscripts, w, bias, z, hidden, view in layers:
        if subscripts is None:
            np.copyto(z, h)
            view *= w
        else:
            np.einsum(subscripts, h, w, optimize=False, out=z)
        view += bias
        h = np.tanh(z, out=z) if hidden else z
    return h


def mlp_forward_batch_cached(params: MlpParams, rows: np.ndarray) -> list[np.ndarray]:
    """Batched forward returning all activation matrices a_0..a_L."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1] != params.widths[0]:
        raise ValueError(f"network expects {params.widths[0]} inputs, got shape {rows.shape}")
    layers = stacked_layers((params,), rows.shape[0])
    head = stacked_forward(layers, rows)
    return [rows] + [layer[3][0] for layer in layers[:-1]] + [head[0]]


def mlp_forward_batch(params: MlpParams, rows: np.ndarray) -> np.ndarray:
    """Evaluate the network on each row of a (rows, n_in) matrix."""
    return mlp_forward_batch_cached(params, rows)[-1]


def _back_through(w: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """delta @ w, the adjoint of a layer's input, without BLAS."""
    if w.shape[0] == 1:
        return delta * w[0][None, :]
    return np.einsum("ro,oi->ri", delta, w, optimize=False)


def _row_sums(delta: np.ndarray, col: np.ndarray | None = None) -> np.ndarray:
    """Sum over the rows of delta, or of delta times the (rows, 1) column col.

    A delta at least 2 wide goes through one einsum contraction, which adds
    the rows in the order ``.sum(axis=0)`` does; a 1-wide delta keeps
    ``.sum(axis=0)``, which sums its contiguous column pairwise.
    """
    if delta.shape[1] == 1:
        return (delta if col is None else delta * col).sum(axis=0)
    if col is None:
        return np.einsum("ro->o", delta, optimize=False)
    return np.einsum("ro,r->o", delta, col[:, 0], optimize=False)


def tanh_slopes(acts: list[np.ndarray]) -> list[np.ndarray]:
    """1 - a^2 of each hidden activation acts[1..L-1]: the tanh derivatives,
    formed once for both backward passes over the same cached forward."""
    slopes = []
    for act in acts[1:-1]:
        slope = np.square(act)
        slopes.append(np.subtract(1.0, slope, out=slope))
    return slopes


def mlp_input_derivative(
    params: MlpParams, acts: list[np.ndarray], slopes: list[np.ndarray] | None = None
) -> np.ndarray:
    """d output / d input on each row of a cached forward of a scalar network.

    Only acts[0..L-1] are read, and ``slopes`` is :func:`tanh_slopes` of
    them (formed here when not given).  This is the input gradient of the
    backward recursion with a unit adjoint, without building the unit
    adjoint or the parameter sums.
    """
    if slopes is None:
        slopes = tanh_slopes(acts)
    back = params.weights[-1][0][None, :]
    for i in range(params.n_layers - 1, 0, -1):
        back = _back_through(params.weights[i - 1], slopes[i - 1] * back)
    return np.broadcast_to(back, (acts[0].shape[0], back.shape[1]))


def mlp_batch_backward(
    params: MlpParams,
    acts: list[np.ndarray],
    row_adjoints: np.ndarray,
    slopes: list[np.ndarray] | None = None,
) -> GradientBundle:
    """Parameter gradients of sum_r <row_adjoints[r], output[r]>.

    ``row_adjoints`` has shape (rows, n_out) and ``acts`` is a cached
    batched forward; only acts[0..L-1] are read, and ``slopes`` is
    :func:`tanh_slopes` of them (formed here when not given).  The sums over
    rows are :func:`_row_sums`: one einsum contraction each where the delta
    is at least 2 wide, ``.sum(axis=0)`` (numpy's pairwise order) where it
    is 1 wide.  A 1-wide delta goes back through its layer as an einsum
    outer product, which writes +0.0 where the product is -0.0; every
    gradient is a row sum that starts from +0.0, so none changes its bits.
    """
    delta = np.asarray(row_adjoints, dtype=float)
    if delta.ndim == 1:
        delta = delta[:, None]
    if slopes is None:
        slopes = tanh_slopes(acts)
    w_grads = [None] * params.n_layers
    b_grads = [None] * params.n_layers
    for i in range(params.n_layers - 1, -1, -1):
        w = params.weights[i]
        if w.shape[1] == 1:
            w_grads[i] = _row_sums(delta, acts[i])[:, None]
        else:
            w_grads[i] = np.einsum("ro,ri->oi", delta, acts[i], optimize=False)
        b_grads[i] = _row_sums(delta)
        if i > 0:
            if w.shape[0] == 1:
                delta = np.einsum("r,i->ri", delta[:, 0], w[0], optimize=False)
            else:
                delta = _back_through(w, delta)
            delta *= slopes[i - 1]
    return GradientBundle(w_grads, b_grads)


# ---------------------------------------------------------------------------
# Parameter checkpoints
# ---------------------------------------------------------------------------


def params_to_text(params: MlpParams) -> str:
    """Serialize parameters to the versioned plain-text checkpoint format."""
    buf = io.StringIO()
    buf.write(CHECKPOINT_TAG + "\n")
    buf.write("widths " + " ".join(str(n) for n in params.widths) + "\n")
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        buf.write(f"weight {i}\n")
        for value in w.ravel():
            buf.write(f"{value:.17g}\n")
        buf.write(f"bias {i}\n")
        for value in b:
            buf.write(f"{value:.17g}\n")
    return buf.getvalue()


def params_from_text(text: str) -> MlpParams:
    """Parse the checkpoint format written by :func:`params_to_text`."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CHECKPOINT_TAG:
        raise ValueError(f"not a parameter checkpoint (expected tag {CHECKPOINT_TAG!r})")
    if len(lines) < 2 or not lines[1].startswith("widths "):
        raise ValueError("checkpoint missing widths line")
    widths = [int(tok) for tok in lines[1].split()[1:]]
    if len(widths) < 2:
        raise ValueError(f"checkpoint widths invalid: {widths}")
    pos = 2
    weights, biases = [], []
    for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
        if pos >= len(lines) or lines[pos].strip() != f"weight {i}":
            raise ValueError(f"checkpoint missing 'weight {i}' at line {pos + 1}")
        pos += 1
        flat = [float(tok) for tok in lines[pos : pos + n_out * n_in]]
        if len(flat) != n_out * n_in:
            raise ValueError(f"checkpoint truncated in weight {i}")
        weights.append(np.array(flat).reshape(n_out, n_in))
        pos += n_out * n_in
        if pos >= len(lines) or lines[pos].strip() != f"bias {i}":
            raise ValueError(f"checkpoint missing 'bias {i}' at line {pos + 1}")
        pos += 1
        flat = [float(tok) for tok in lines[pos : pos + n_out]]
        if len(flat) != n_out:
            raise ValueError(f"checkpoint truncated in bias {i}")
        biases.append(np.array(flat))
        pos += n_out
    if any(line.strip() for line in lines[pos:]):
        raise ValueError("trailing content after checkpoint data")
    return MlpParams(weights, biases)
