"""Small tanh multilayer perceptrons with reverse-mode differentiation.

A network is a list of affine layers; tanh is applied after every layer
except the last, which stays affine so outputs are unbounded.  Every pass
maps a whole (rows, n_in) matrix of inputs at once.  The cached forward pass
keeps the per-layer activations; a backward pass over them yields exact
gradients of ``sum_r <adjoint_r, output_r>`` with respect to every weight
and bias, and a second pass the per-row derivative of a scalar network.

All contractions go through element-wise broadcasting, axis sums, or
un-optimized ``einsum`` — never a BLAS call — so results are bitwise
reproducible regardless of how the host's BLAS was built or how many
threads it uses.

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
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

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
        out = []
        for w, b in zip(self.w_grads, self.b_grads):
            out.append(w)
            out.append(b)
        return out

    def all_finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.arrays())


def zero_gradients(params: MlpParams) -> GradientBundle:
    return GradientBundle(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
    )


def _check_input(params: MlpParams, x: np.ndarray):
    n_in = params.widths[0]
    if x.shape[-1] != n_in:
        raise ValueError(f"network expects {n_in} inputs, got shape {x.shape}")


def layer_apply(w: np.ndarray, b: np.ndarray, h: np.ndarray, out=None) -> np.ndarray:
    """Affine layer on a (rows, n_in) batch without BLAS, into ``out`` if given.

    Width-1 inputs reduce to a broadcast multiply; wider layers use a fixed
    single-threaded einsum contraction.
    """
    if w.shape[1] == 1:
        z = np.multiply(h, w[:, 0][None, :], out=out)
    else:
        z = np.einsum("ri,oi->ro", h, w, optimize=False, out=out)
    z += b[None, :]
    return z


def mlp_forward_batch_cached(params: MlpParams, rows: np.ndarray) -> list[np.ndarray]:
    """Batched forward returning all activation matrices a_0..a_L."""
    rows = np.asarray(rows, dtype=float)
    _check_input(params, rows)
    acts = [rows]
    h = rows
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = layer_apply(w, b, h)
        if i != last:
            h = np.tanh(h, out=h)
        acts.append(h)
    return acts


def mlp_forward_batch(params: MlpParams, rows: np.ndarray) -> np.ndarray:
    """Evaluate the network on each row of a (rows, n_in) matrix."""
    return mlp_forward_batch_cached(params, rows)[-1]


def _back_through(w: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """delta @ w, the adjoint of a layer's input, without BLAS."""
    if w.shape[0] == 1:
        return delta * w[0][None, :]
    return np.einsum("ro,oi->ri", delta, w, optimize=False)


def _tanh_gate(act: np.ndarray, back: np.ndarray) -> np.ndarray:
    """back * (1 - act^2), the adjoint through a tanh layer, in one buffer."""
    gate = np.square(act)
    np.subtract(1.0, gate, out=gate)
    gate *= back
    return gate


def mlp_input_derivative(params: MlpParams, acts: list[np.ndarray]) -> np.ndarray:
    """d output / d input on each row of a cached forward of a scalar network.

    Only acts[0..L-1] are read.  This is the input gradient of the
    backward recursion with a unit adjoint, without building the unit
    adjoint or the parameter sums.
    """
    back = params.weights[-1][0][None, :]
    for i in range(params.n_layers - 1, 0, -1):
        back = _back_through(params.weights[i - 1], _tanh_gate(acts[i], back))
    return np.broadcast_to(back, (acts[0].shape[0], back.shape[1]))


def mlp_batch_backward(
    params: MlpParams, acts: list[np.ndarray], row_adjoints: np.ndarray
) -> GradientBundle:
    """Parameter gradients of sum_r <row_adjoints[r], output[r]>.

    ``row_adjoints`` has shape (rows, n_out) and ``acts`` is a cached
    batched forward; only acts[0..L-1] are read.
    """
    delta = np.asarray(row_adjoints, dtype=float)
    if delta.ndim == 1:
        delta = delta[:, None]
    w_grads = [None] * params.n_layers
    b_grads = [None] * params.n_layers
    for i in range(params.n_layers - 1, -1, -1):
        w = params.weights[i]
        if w.shape[1] == 1:
            w_grads[i] = (delta * acts[i]).sum(axis=0)[:, None]
        else:
            w_grads[i] = np.einsum("ro,ri->oi", delta, acts[i], optimize=False)
        b_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = _tanh_gate(acts[i], _back_through(w, delta))
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
