"""Euler simulation of the neural SDE generator, with pathwise gradients.

The generator couples a state and a memory process,

    X_{k+1} = X_k + (b(X_k) - ell1(t_k) sigma(X_k) K_k) dt + sigma(X_k) dW_k
    K_{k+1} = K_k + ell2(t_k) dW_k,          X_0 = x0,  K_0 = 0,

where b, sigma, ell1, ell2 are scalar networks and sigma is kept strictly
positive by a softplus with a small floor.  Clamping ell2 to zero freezes
K at zero and collapses the system to the plain SDE dX = b dt + sigma dW.

One batched Euler sweep simulates every path; a path that leaves the
admissible region is masked as dead rather than stopping the others.  Each
step maps the states through both state networks' first layers at once,
with their weights stacked into one (2, m, H) array, and writes the new
states in place with the one X update, :func:`euler_x_step`.  The sweep
records a tape, including the drift and diffusion networks' activations at
every (step, path) pair, written as they are computed into buffers
allocated once; both first layers go to one stacked (2, n, m, H) record.
:func:`backpropagate` then differentiates any
scalar functional of the paths with respect to every network parameter
while holding the Brownian increments fixed (reparameterized gradients): it
reads b', sigma' and the parameter gradients off those records, with no
second forward pass, around one sequential state-adjoint recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from .neural import (
    GradientBundle,
    MlpParams,
    layer_apply,
    mlp_batch_backward,
    mlp_forward_batch,
    mlp_forward_batch_cached,
    mlp_input_derivative,
    zero_gradients,
)
from .noise import brownian_increments
from .rng import NoiseSeed

SIGMA_FLOOR = 1e-4
DIVERGENCE_GUARD = 1e12

# Network roles, in the fixed order used for gradient flattening and
# parameter-initialization tags.
NET_NAMES = ("drift", "diffusion", "ell1", "ell2")


def softplus(x, out=None):
    """log(1 + e^x) without overflow for large x."""
    return np.logaddexp(0.0, x, out=out)


def sigmoid(x):
    """Logistic function, overflow-free on both tails."""
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def softplus_inverse(y: float) -> float:
    """Scalar inverse of softplus; handy for pinning sigma to a target value."""
    if y <= 0.0:
        raise ValueError(f"softplus is positive, got target {y}")
    return float(np.log(np.expm1(y)))


@dataclass
class NansdeModel:
    """The four scalar networks plus grid, start value, and the ell2 clamp."""

    drift_net: MlpParams
    diffusion_net: MlpParams
    ell1_net: MlpParams
    ell2_net: MlpParams
    grid: TimeGrid
    x0: float
    clamp_ell2: bool = False

    def __post_init__(self):
        for name in NET_NAMES:
            widths = self.net(name).widths
            if widths[0] != 1 or widths[-1] != 1:
                raise ValueError(f"{name} network must be scalar-in/scalar-out, got {widths}")
        if not np.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")

    def net(self, name: str) -> MlpParams:
        return getattr(self, f"{name}_net")

    def trainable_names(self) -> tuple[str, ...]:
        """Networks updated by training; the clamped ell2 stays frozen."""
        if self.clamp_ell2:
            return ("drift", "diffusion", "ell1")
        return NET_NAMES

    def copy(self) -> "NansdeModel":
        return NansdeModel(
            self.drift_net.copy(),
            self.diffusion_net.copy(),
            self.ell1_net.copy(),
            self.ell2_net.copy(),
            self.grid,
            self.x0,
            self.clamp_ell2,
        )


def _sigma(raw: np.ndarray, out=None) -> np.ndarray:
    """The diffusion coefficient from its network's raw head: softplus plus floor."""
    out = softplus(raw, out)
    out += SIGMA_FLOOR
    return out


def coefficients(model: NansdeModel, x) -> tuple[np.ndarray, np.ndarray, list, list]:
    """b and sigma evaluated elementwise on an array of states.

    sigma is the softplus of the diffusion network's head plus the floor.
    Also returns the drift and diffusion networks' cached activations, from
    which derivatives and parameter gradients follow by backward passes.
    """
    rows = np.asarray(x, dtype=float).reshape(-1, 1)
    drift_acts = mlp_forward_batch_cached(model.drift_net, rows)
    diffusion_acts = mlp_forward_batch_cached(model.diffusion_net, rows)
    b = drift_acts[-1][:, 0]
    sigma = _sigma(diffusion_acts[-1][:, 0])
    return b, sigma, drift_acts, diffusion_acts


def euler_x_step(x, k, b, sigma, ell1, dw, dt: float, out: np.ndarray, scratch: np.ndarray):
    """The X update x + (b - ell1 sigma k) dt + sigma dW, written into ``out``.

    The Euler sweep calls it on (m,) vectors and ``metrics.r2_score`` on
    arrays that broadcast to (m_pred, n_test); ``scratch`` (shaped like
    ``out``) receives sigma dW.  One order of operations gives both the same bits.
    """
    np.multiply(ell1, sigma, out=out)
    out *= k
    np.subtract(b, out, out=out)
    out *= dt
    out += x
    np.multiply(sigma, dw, out=scratch)
    out += scratch
    return out


def kernel_values(model: NansdeModel, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ell1, ell2) on an array of times; ell2 is exact zeros when clamped."""
    rows = np.asarray(t, float).reshape(-1, 1)
    ell1 = mlp_forward_batch(model.ell1_net, rows)[:, 0]
    if model.clamp_ell2:
        ell2 = np.zeros(rows.shape[0])
    else:
        ell2 = mlp_forward_batch(model.ell2_net, rows)[:, 0]
    return ell1, ell2


@dataclass(frozen=True)
class Ensemble:
    """Simulated paths sharing one grid, one column of ``values`` per path.

    ``alive`` marks the paths that never tripped the divergence guard; a
    dead column holds placeholder values after the step where it diverged.
    """

    grid: TimeGrid
    values: np.ndarray  # (n_points, m)
    alive: np.ndarray  # (m,) bool

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.n_points:
            raise ValueError(
                f"need {self.grid.n_points} rows of path values, got shape {self.values.shape}"
            )
        if self.values.shape[1] < 1:
            raise ValueError("an ensemble needs at least one path")
        if self.alive.shape != (self.values.shape[1],):
            raise ValueError("need one alive flag per path")

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def values_matrix(self) -> np.ndarray:
        """The (n_points, m) value matrix, one column per path."""
        return self.values


@dataclass
class SimTape:
    """Everything a backward pass needs: states, increments, kernel values
    and the state networks' activations.

    ``drift_acts`` and ``diffusion_acts`` hold one contiguous (n_steps, m,
    width) record per layer 1..L of the drift and diffusion networks,
    written by the sweep as it evaluated b and sigma; the drift head is not
    needed and its entry is None.  The two first-layer records are the
    halves of one stacked (2, n_steps, m, H) record, except that a first
    layer narrower than H is copied out of its zero-padded half.  Both are
    None on a tape simulated without recording, and a backward pass takes
    them off the tape it consumes.

    ``alive`` marks columns that never tripped the divergence guard; dead
    columns hold frozen placeholder values after their ``death_step`` and
    must be excluded from gradient computations.
    """

    model: NansdeModel
    x: np.ndarray  # (n_steps + 1, m)
    k: np.ndarray  # (n_steps + 1, m)
    dw: np.ndarray  # (n_steps, m)
    ell1_vals: np.ndarray  # (n_steps,)
    ell2_vals: np.ndarray  # (n_steps,)
    ell1_acts: list[np.ndarray]
    ell2_acts: list[np.ndarray] | None
    drift_acts: list[np.ndarray | None] | None
    diffusion_acts: list[np.ndarray] | None
    alive: np.ndarray  # (m,) bool
    death_step: np.ndarray  # (m,) int, -1 while alive
    consumed: bool = False

    def consume(self):
        if self.consumed:
            raise RuntimeError("simulation tape already consumed by a backward pass")
        self.consumed = True


def _forward_rest(net: MlpParams, outs: list[np.ndarray], s: int) -> np.ndarray:
    """Layers 2..L of a state network at slot s, each into its buffer.

    ``outs[0]`` holds the first layer's activations; a 3-d buffer keeps one
    (m, width) slot per step, a 2-d one is reused.  Returns the (m, 1) head.
    """
    a = outs[0][s]
    last = net.n_layers - 1
    for j in range(1, net.n_layers):
        dest = outs[j]
        a = layer_apply(net.weights[j], net.biases[j], a, dest if dest.ndim == 2 else dest[s])
        if j != last:
            np.tanh(a, out=a)
    return a


def simulate_batch_with_tape(
    model: NansdeModel, m: int, base_seed: NoiseSeed, record: bool = True
) -> SimTape:
    """Run the Euler scheme for m paths on streams base..base+m-1.

    Path j depends only on its own stream, so its values do not depend on
    how many paths are simulated together.  A path that turns non-finite or
    exceeds the divergence guard is marked dead at that step and pinned to
    placeholder values; the others carry on.  With ``record`` the drift and
    diffusion activations of every step are kept on the tape for
    :func:`backpropagate`.
    """
    if m < 1:
        raise ValueError(f"ensemble size must be >= 1, got {m}")
    grid = model.grid
    n, dt = grid.n_steps, grid.dt

    dw = np.empty((n, m))
    for j in range(m):
        dw[:, j] = brownian_increments(grid, base_seed.child(j))

    t_rows = grid.step_times()[:, None]
    ell1_acts = mlp_forward_batch_cached(model.ell1_net, t_rows)
    ell1 = ell1_acts[-1][:, 0]
    if model.clamp_ell2:
        ell2_acts = None
        ell2 = np.zeros(n)
    else:
        ell2_acts = mlp_forward_batch_cached(model.ell2_net, t_rows)
        ell2 = ell2_acts[-1][:, 0]

    # Layers 1..L of both state networks.  Both take the scalar state, so
    # their first layers are one multiply-add per step into one (2, slots,
    # m, H) array: the weights and biases are stacked, zero-padded to the
    # wider layer (padded columns are never read) and repeated over the m
    # paths, so that the multiply-add runs over whole contiguous arrays.
    # Each deeper layer has its own (slots, m, width) buffer, except the
    # drift head, which the backward pass does not need and which is reused.
    nets = (model.drift_net, model.diffusion_net)
    width = max(net.widths[1] for net in nets)
    slots = n if record else 1
    first = np.empty((2, slots, m, width))
    first_w = np.zeros((2, m, width))
    first_b = np.zeros((2, m, width))
    outs = []
    for i, net in enumerate(nets):
        h1 = net.widths[1]
        first_w[i, :, :h1] = net.weights[0][:, 0]
        first_b[i, :, :h1] = net.biases[0]
        outs.append([first[i, ..., :h1]] + [np.empty((slots, m, w)) for w in net.widths[2:-1]])
        if net.n_layers > 1:
            outs[i].append(np.empty((m, 1)) if i == 0 else np.empty((slots, m, 1)))
    # tanh applies to the first layers that are hidden, not to an affine head.
    hidden = [i for i, net in enumerate(nets) if net.n_layers > 1]
    tanh_first = first[hidden[0] : hidden[-1] + 1] if hidden else None

    x = np.empty((n + 1, m))
    k = np.empty((n + 1, m))
    x[0] = model.x0
    k[0] = 0.0
    x_rows = x[:, :, None]
    alive = np.ones(m, dtype=bool)
    dead = None
    death_step = np.full(m, -1)
    sigma = np.empty(m)
    scratch = np.empty(m)
    ok = np.empty(m, dtype=bool)
    guard = DIVERGENCE_GUARD

    for step in range(n):
        s = step if record else 0
        h = first[:, s]
        np.multiply(x_rows[step], first_w, out=h)
        h += first_b
        if tanh_first is not None:
            h = tanh_first[:, s]
            np.tanh(h, out=h)
        b = _forward_rest(nets[0], outs[0], s)[:, 0]
        _sigma(_forward_rest(nets[1], outs[1], s)[:, 0], out=sigma)

        new_x, new_k = x[step + 1], k[step + 1]
        euler_x_step(x[step], k[step], b, sigma, ell1[step], dw[step], dt, new_x, scratch)
        np.multiply(ell2[step], dw[step], out=new_k)
        new_k += k[step]

        # A NaN fails the <= test, so this also catches non-finite states;
        # sigma is spent and holds |K|.
        np.abs(new_x, out=scratch)
        np.abs(new_k, out=sigma)
        np.maximum(scratch, sigma, out=scratch)
        np.less_equal(scratch, guard, out=ok)
        if not ok.all():
            bad = ~ok & alive
            if bad.any():
                alive[bad] = False
                death_step[bad] = step
                dead = ~alive
        if dead is not None:
            # Pin dead columns to harmless values so the remaining steps stay
            # silent; they are masked out of losses and gradients.
            new_x[dead] = 1.0
            new_k[dead] = 0.0

    drift_acts = diffusion_acts = None
    if record:
        # A zero-padded first layer is copied out to a contiguous record.
        drift_acts = [np.ascontiguousarray(a) for a in outs[0][:-1]] + [None]
        diffusion_acts = [np.ascontiguousarray(a) for a in outs[1]]

    return SimTape(
        model, x, k, dw, ell1, ell2, ell1_acts, ell2_acts, drift_acts, diffusion_acts,
        alive, death_step,
    )


def simulate_ensemble(model: NansdeModel, m: int, base_seed: NoiseSeed) -> Ensemble:
    """The paths of :func:`simulate_batch_with_tape`, recording nothing."""
    tape = simulate_batch_with_tape(model, m, base_seed, record=False)
    return Ensemble(model.grid, tape.x, tape.alive)


@dataclass
class ModelGradients:
    """One gradient bundle per network, in the model's fixed order."""

    drift: GradientBundle
    diffusion: GradientBundle
    ell1: GradientBundle
    ell2: GradientBundle

    def bundle(self, name: str) -> GradientBundle:
        return getattr(self, name)

    def all_finite(self) -> bool:
        return all(self.bundle(name).all_finite() for name in NET_NAMES)


def _participating_rows(record: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (n * len(cols), width) rows of an (n, m, width) record at columns cols.

    Step by step, the selected rows move to the front of the record's own
    buffer; a row never moves to a later position, so none is overwritten
    before it is read, and no second buffer of the record's size is needed.
    """
    n, m, width = record.shape
    rows = record.reshape(n * m, width)
    mv = cols.size
    if mv == m:
        return rows
    for step in range(n):
        rows[step * mv : (step + 1) * mv] = rows[step * m + cols]
    return rows[: n * mv]


def backpropagate(tape: SimTape, x_adjoints: np.ndarray, columns: np.ndarray | None = None) -> ModelGradients:
    """Parameter gradients of sum_{k,j} x_adjoints[k,j] * X_k^{(j)}.

    ``x_adjoints`` has the same shape as ``tape.x``.  ``columns`` selects
    which paths participate (default: the paths that never diverged); the
    others' adjoints are ignored.  The Brownian increments are treated as
    constants, so this is the reparameterized gradient.

    The reverse sweep uses the recursion

        xbar_k = a_k + xbar_{k+1} (1 + (b' - ell1 sigma' K) dt + sigma' dW)
        kbar_k = kbar_{k+1} - xbar_{k+1} ell1 sigma dt,   kbar_n = 0,

    after which each network's parameter gradient is one batched backward
    pass with the appropriate per-(step, path) adjoint weights.  sigma, b',
    sigma' and those passes all read the activations the forward sweep
    recorded, with the participating columns selected once (not at all
    when every column participates).
    """
    tape.consume()
    if tape.drift_acts is None or tape.diffusion_acts is None:
        raise ValueError("tape was simulated without recording activations")
    model = tape.model
    if columns is None:
        columns = tape.alive
    cols = np.flatnonzero(columns)
    if cols.size == 0:
        raise ValueError("no surviving columns to backpropagate through")

    n, dt = model.grid.n_steps, model.grid.dt
    a = np.asarray(x_adjoints, dtype=float)
    if a.shape != tape.x.shape:
        raise ValueError(f"adjoint shape {a.shape} does not match states {tape.x.shape}")
    mv = cols.size
    xs, ks, dws = tape.x, tape.k, tape.dw
    if mv < a.shape[1]:
        a, xs, ks, dws = a[:, cols], xs[:, cols], ks[:, cols], dws[:, cols]
    ell1 = tape.ell1_vals[:, None]  # (n, 1), broadcasts over columns

    # The sweep's activations at the participating (step, path) pairs, as
    # (n * mv, width) rows; a_0 is the states themselves.  The tape lets go
    # of its records, so each is freed once its rows are no longer needed.
    x_rows = xs[:-1].reshape(-1, 1)
    drift_acts = [x_rows] + [
        None if r is None else _participating_rows(r, cols) for r in tape.drift_acts
    ]
    diff_acts = [x_rows] + [_participating_rows(r, cols) for r in tape.diffusion_acts]
    tape.drift_acts = tape.diffusion_acts = None

    raw = diff_acts[-1][:, 0]
    sigma = _sigma(raw).reshape(n, mv)
    gate = sigmoid(raw)  # d softplus / d raw
    b_prime = mlp_input_derivative(model.drift_net, drift_acts).reshape(n, mv)
    raw_prime = mlp_input_derivative(model.diffusion_net, diff_acts)
    sigma_prime = (gate * raw_prime[:, 0]).reshape(n, mv)

    # State adjoint, swept backward through the unrolled scheme.
    gain = 1.0 + (b_prime - ell1 * sigma_prime * ks[:-1]) * dt + sigma_prime * dws
    xbar = np.empty((n + 1, mv))
    xbar[n] = a[n]
    for step in range(n - 1, -1, -1):
        xbar[step] = a[step] + xbar[step + 1] * gain[step]

    # Memory adjoint: K_k feeds X_{k+1} and K_{k+1}; suffix-sum the direct
    # contributions to get kbar_{k+1} for the ell2 gradient.
    k_direct = xbar[1:] * (-ell1 * sigma * dt)
    suffix = np.cumsum(k_direct[::-1], axis=0)[::-1]
    kbar_next = np.vstack((suffix[1:], np.zeros((1, mv))))

    drift_adj = (xbar[1:] * dt).reshape(-1, 1)
    drift_bundle = mlp_batch_backward(model.drift_net, drift_acts, drift_adj)
    del drift_acts, drift_adj

    sigma_adj = (xbar[1:] * (dws - ell1 * ks[:-1] * dt)).reshape(-1) * gate
    diff_bundle = mlp_batch_backward(model.diffusion_net, diff_acts, sigma_adj.reshape(-1, 1))

    ell1_adj = (xbar[1:] * (-sigma * ks[:-1] * dt)).sum(axis=1).reshape(-1, 1)
    ell1_bundle = mlp_batch_backward(model.ell1_net, tape.ell1_acts, ell1_adj)

    if model.clamp_ell2:
        ell2_bundle = zero_gradients(model.ell2_net)
    else:
        ell2_adj = (kbar_next * dws).sum(axis=1).reshape(-1, 1)
        ell2_bundle = mlp_batch_backward(model.ell2_net, tape.ell2_acts, ell2_adj)

    return ModelGradients(drift_bundle, diff_bundle, ell1_bundle, ell2_bundle)
