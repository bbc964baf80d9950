"""Small tanh multilayer perceptrons with reverse-mode differentiation.

A network is a list of affine layers; tanh is applied after every layer
except the last, which stays affine so outputs are unbounded.  Every pass
maps a whole (rows, n_in) matrix of inputs at once.  The cached forward pass
keeps the per-layer activations; a backward pass over them yields exact
gradients of ``sum_r <adjoint_r, output_r>`` with respect to every weight
and bias, and the per-row input gradients.

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


def _layer_apply(w: np.ndarray, b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Affine layer on a (rows, n_in) batch without BLAS.

    Width-1 inputs reduce to a broadcast multiply; wider layers use a fixed
    single-threaded einsum contraction.
    """
    if w.shape[1] == 1:
        return h * w[:, 0][None, :] + b[None, :]
    return np.einsum("ri,oi->ro", h, w, optimize=False) + b[None, :]


def mlp_forward_batch_cached(params: MlpParams, rows: np.ndarray) -> list[np.ndarray]:
    """Batched forward returning all activation matrices a_0..a_L."""
    rows = np.asarray(rows, dtype=float)
    _check_input(params, rows)
    acts = [rows]
    h = rows
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = _layer_apply(w, b, h)
        if i != last:
            h = np.tanh(h)
        acts.append(h)
    return acts


def mlp_forward_batch(params: MlpParams, rows: np.ndarray) -> np.ndarray:
    """Evaluate the network on each row of a (rows, n_in) matrix."""
    return mlp_forward_batch_cached(params, rows)[-1]


def mlp_batch_backward(
    params: MlpParams,
    acts: list[np.ndarray],
    row_adjoints: np.ndarray,
    with_param_grads: bool = True,
) -> tuple[GradientBundle | None, np.ndarray]:
    """Backward pass over a cached batched forward.

    ``row_adjoints`` has shape (rows, n_out); the returned bundle holds the
    parameter gradients of sum_r <row_adjoints[r], output[r]>, and the second
    return value is the per-row input gradient (rows, n_in).  Parameter
    accumulation can be skipped when only input sensitivities are needed.
    """
    delta = np.asarray(row_adjoints, dtype=float)
    if delta.ndim == 1:
        delta = delta[:, None]
    w_grads = [None] * params.n_layers
    b_grads = [None] * params.n_layers
    x_grads = None
    for i in range(params.n_layers - 1, -1, -1):
        w = params.weights[i]
        if with_param_grads:
            if w.shape[1] == 1:
                w_grads[i] = (delta * acts[i]).sum(axis=0)[:, None]
            else:
                w_grads[i] = np.einsum("ro,ri->oi", delta, acts[i], optimize=False)
            b_grads[i] = delta.sum(axis=0)
        if w.shape[0] == 1:
            back = delta * w[0][None, :]
        else:
            back = np.einsum("ro,oi->ri", delta, w, optimize=False)
        if i > 0:
            delta = back * (1.0 - acts[i] ** 2)
        else:
            x_grads = back
    bundle = GradientBundle(w_grads, b_grads) if with_param_grads else None
    return bundle, x_grads


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
