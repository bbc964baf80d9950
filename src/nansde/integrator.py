"""Euler simulation of the neural SDE generator, with pathwise gradients.

The generator couples a state and a memory process,

    X_{k+1} = X_k + (b(X_k) - ell1(t_k) sigma(X_k) K_k) dt + sigma(X_k) dW_k
    K_{k+1} = K_k + ell2(t_k) dW_k,          X_0 = x0,  K_0 = 0,

where b, sigma, ell1, ell2 are scalar networks and sigma is kept strictly
positive by a softplus with a small floor.  Clamping ell2 to zero freezes
K at zero and collapses the system to the plain SDE dX = b dt + sigma dW.

One batched Euler sweep simulates every path; a path that leaves the
admissible region is masked as dead rather than stopping the others.  K
never reads X, so it is filled in whole before the sweep, as the running sum
of ell2 dW (:func:`memory_integral`).  The drift and diffusion networks have
equal widths and run as one stacked network (:func:`stacked_state_layers`):
each step maps the states through both at once, layer by layer
(:func:`state_heads`), and writes the new states in place with the one X
update, :func:`euler_x_step`.  The R^2 predictor in ``metrics`` runs on the
same functions.  The sweep records a tape, including the drift and
diffusion networks' activations and sigma at every (step, path) pair,
written as they are computed into buffers allocated once: one stacked
(2, n, m, width) record per hidden layer, whose halves belong to the two
networks, and the diffusion head.
:func:`backpropagate` then differentiates any scalar functional of the
paths with respect to every network parameter while holding the Brownian
increments fixed (reparameterized gradients): one reverse sweep over
cache-sized blocks of steps reads b', sigma' and the parameter gradients off
those records, with no second forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from .neural import (
    GradientBundle,
    MlpParams,
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
# (step, path) rows per block of the backward pass: about what keeps a
# block's width-20 activations and their temporaries in a core's L2 cache.
BACKWARD_BLOCK_ROWS = 4096

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
        # The Euler sweep runs the drift and diffusion networks as one stacked network.
        if self.drift_net.widths != self.diffusion_net.widths:
            raise ValueError(
                f"drift and diffusion networks must have equal widths, got "
                f"{self.drift_net.widths} and {self.diffusion_net.widths}"
            )
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
        nets = (self.net(name).copy() for name in NET_NAMES)
        return NansdeModel(*nets, self.grid, self.x0, self.clamp_ell2)


def _sigma(raw: np.ndarray, out=None) -> np.ndarray:
    """The diffusion coefficient from its network's raw head: softplus plus floor."""
    out = softplus(raw, out)
    out += SIGMA_FLOOR
    return out


def euler_x_step(x, k, b, sigma, ell1, dw, dt: float, out: np.ndarray, scratch: np.ndarray):
    """The X update x + (b - ell1 sigma k) dt + sigma dW, written into ``out``.

    The Euler sweep calls it on (m,) vectors and ``metrics.r2_score`` on
    arrays that broadcast to (n_test, m_pred); ``scratch`` (shaped like
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


def stacked_state_layers(model: NansdeModel, m: int, slots: int) -> list[tuple]:
    """The drift and diffusion networks, of equal widths, stacked for m rows.

    Each layer's weights and biases are stacked along a leading axis of 2.
    The first layer is a broadcast multiply with its weights and biases
    repeated over the m rows, which keeps the multiply-add on whole
    contiguous arrays; a deeper layer is one stacked einsum, or a broadcast
    multiply for a 1-wide input as in ``layer_apply``.  A layer holds a
    reused (2, m, width) buffer and, if hidden, a (2, slots, m, width) record.
    """
    nets = (model.drift_net, model.diffusion_net)
    widths = nets[0].widths
    layers = []
    for j, width in enumerate(widths[1:]):
        w = np.stack([net.weights[j] for net in nets])  # (2, n_out, n_in)
        bias = np.stack([net.biases[j] for net in nets])[:, None, :]
        contract = w.shape[2] > 1
        if j == 0:
            w = np.repeat(w.transpose(0, 2, 1), m, axis=1)
            bias = np.repeat(bias, m, axis=1)
        elif not contract:
            w = w.transpose(0, 2, 1)
        rec = np.empty((2, slots, m, width)) if j < len(widths) - 2 else None
        layers.append((contract, w, bias, np.empty((2, m, width)), rec))
    return layers


def state_heads(layers: list[tuple], h: np.ndarray, slot: int) -> np.ndarray:
    """The (2, m, 1) raw drift and diffusion heads of an (m, 1) block of states,
    held in the head's buffer; hidden activations go to record slot ``slot``."""
    for contract, w, bias, z, rec in layers:
        if contract:
            np.einsum("kri,koi->kro", h, w, optimize=False, out=z)
        else:
            np.multiply(h, w, out=z)
        z += bias
        h = z if rec is None else np.tanh(z, out=rec[:, slot])
    return h


def memory_integral(ell2: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """K on the grid: K_0 = 0, K_{k+1} = K_k + ell2_k dW_k, one column per path of dw."""
    k = np.empty((dw.shape[0] + 1, dw.shape[1]))
    k[0] = 0.0
    np.multiply(ell2[:, None], dw, out=k[1:])
    np.add.accumulate(k, axis=0, out=k)
    return k


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
    written by the sweep as it evaluated b and sigma: a hidden layer's two
    records are the halves of one stacked (2, n_steps, m, width) record.
    The backward pass does not need the drift head, so it is not recorded
    and its entry is None.  ``sigma`` records the diffusion coefficient the
    sweep stepped with.  All three are None on a tape simulated without
    recording; a backward pass takes them off the tape it consumes and
    releases them when it is done.

    ``k`` is filled in before the sweep; a dead column's K is zero after its
    ``death_step``, like the placeholder values of its X.

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
    sigma: np.ndarray | None  # (n_steps, m)
    alive: np.ndarray  # (m,) bool
    death_step: np.ndarray  # (m,) int, -1 while alive
    consumed: bool = False

    def consume(self):
        if self.consumed:
            raise RuntimeError("simulation tape already consumed by a backward pass")
        self.consumed = True


def simulate_batch_with_tape(
    model: NansdeModel, m: int, base_seed: NoiseSeed, record: bool = True
) -> SimTape:
    """Run the Euler scheme for m paths on streams base..base+m-1.

    Path j depends only on its own stream, so its values do not depend on
    how many paths are simulated together.  A path whose X or K turns
    non-finite or exceeds the divergence guard is marked dead at that step
    and pinned to placeholder values; the others carry on.  With ``record``
    the drift and diffusion activations and sigma of every step are kept on
    the tape for :func:`backpropagate`.
    """
    if m < 1:
        raise ValueError(f"ensemble size must be >= 1, got {m}")
    grid = model.grid
    n, dt = grid.n_steps, grid.dt
    guard = DIVERGENCE_GUARD

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

    # Of the head only the diffusion half is recorded: the backward pass reads no more.
    slots = n if record else 1
    layers = stacked_state_layers(model, m, slots)
    head_rec = np.empty((n, m, 1)) if record else None

    # x is allocated before k: in the other order the heap reuses the blocks
    # freed by an earlier sweep less well, and three evaluations (T = 2000,
    # 256 paths) in one process peaked 3.6 MB higher in resident memory.
    x = np.empty((n + 1, m))
    x[0] = model.x0
    x_rows = x[:, :, None]

    # K never reads X, so it is filled in whole.  Its guard test is one max
    # and one min; only when that fails is each column's first bad step
    # looked up, for the sweep to kill it there.
    k = memory_integral(ell2, dw)
    k_deaths = {}
    if not (k.max() <= guard and -guard <= k.min()):
        bad_k = ~(np.abs(k) <= guard)
        for j in np.flatnonzero(bad_k.any(axis=0)):
            # K_{s+1} is step s's update.
            k_deaths.setdefault(int(bad_k[:, j].argmax()) - 1, []).append(j)

    alive = np.ones(m, dtype=bool)
    dead = None
    death_step = np.full(m, -1)
    sigmas = np.empty((slots, m))
    scratch = np.empty(m)

    for step in range(n):
        s = step if record else 0
        h = state_heads(layers, x_rows[step], s)
        if record:
            head_rec[step] = h[1]
        sigma = _sigma(h[1, :, 0], out=sigmas[s])

        new_x = x[step + 1]
        euler_x_step(x[step], k[step], h[0, :, 0], sigma, ell1[step], dw[step], dt, new_x, scratch)

        # A NaN fails the <= test, so this also catches non-finite states.
        np.abs(new_x, out=scratch)
        if not scratch.max() <= guard or step in k_deaths:
            bad = ~(scratch <= guard)
            bad[k_deaths.get(step, [])] = True
            bad &= alive
            if bad.any():
                alive[bad] = False
                death_step[bad] = step
                k[step + 1 :, bad] = 0.0
                dead = ~alive
        if dead is not None:
            # Pin dead columns to harmless values so the remaining steps stay
            # silent; they are masked out of losses and gradients.
            new_x[dead] = 1.0

    drift_acts = diffusion_acts = None
    if record:
        hidden_recs = [layer[4] for layer in layers[:-1]]
        drift_acts = [rec[0] for rec in hidden_recs] + [None]
        diffusion_acts = [rec[1] for rec in hidden_recs] + [head_rec]

    return SimTape(
        model, x, k, dw, ell1, ell2, ell1_acts, ell2_acts, drift_acts, diffusion_acts,
        sigmas if record else None, alive, death_step,
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


def _add_into(total: GradientBundle | None, part: GradientBundle) -> GradientBundle:
    """total + part, summed into total's arrays; part itself when total is None."""
    if total is None:
        return part
    for t, p in zip(total.arrays(), part.arrays()):
        t += p
    return total


def backpropagate(tape: SimTape, x_adjoints: np.ndarray, columns: np.ndarray | None = None) -> ModelGradients:
    """Parameter gradients of sum_{k,j} x_adjoints[k,j] * X_k^{(j)}.

    ``x_adjoints`` has the same shape as ``tape.x``.  ``columns`` selects
    which paths participate (default: the paths that never diverged); the
    others' adjoints are ignored.  The Brownian increments are treated as
    constants, so this is the reparameterized gradient.

    The reverse sweep uses the recursion

        xbar_k = a_k + xbar_{k+1} (1 + (b' - ell1 sigma' K) dt + sigma' dW)
        kbar_k = kbar_{k+1} - xbar_{k+1} ell1 sigma dt,   kbar_n = 0,

    and each network's parameter gradient is a batched backward pass with
    per-(step, path) adjoint weights.  The drift and diffusion networks are
    done in one reverse sweep over blocks of about ``BACKWARD_BLOCK_ROWS``
    (step, path) rows: steps [0, s), [s, 2s), ... (the last block ragged),
    visited last block first.  A block gathers the participating columns of
    each record, takes b' and sigma' from them, runs the xbar recursion over
    its steps and both parameter passes on the same rows.  Each network's
    gradient is the sum of its per-block bundles, added in the order the
    sweep visits the blocks.  The activation records are then released, and
    the kbar recursion and ell1/ell2 passes run over the whole grid with the
    recorded sigma.
    """
    tape.consume()
    if tape.drift_acts is None or tape.diffusion_acts is None or tape.sigma is None:
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
    m, mv = a.shape[1], cols.size

    def take(arr, s0, s1):
        """arr at steps s0..s1-1 and the participating columns."""
        return arr[s0:s1] if mv == m else np.take(arr[s0:s1], cols, axis=1)

    ks, dws, sigma = take(tape.k, 0, n + 1), take(tape.dw, 0, n), take(tape.sigma, 0, n)
    ell1 = tape.ell1_vals[:, None]  # (n, 1), broadcasts over columns

    # The tape lets go of its records; the activations are freed after the
    # sweep, sigma on return.
    nets = (model.drift_net, model.diffusion_net)
    records = (tape.drift_acts, tape.diffusion_acts)
    tape.drift_acts = tape.diffusion_acts = tape.sigma = None
    steps = max(1, BACKWARD_BLOCK_ROWS // mv)
    xbar = np.empty((n + 1, mv))
    xbar[n] = take(a, n, n + 1)[0]
    bundles = [None, None]
    for s0 in range(steps * ((n - 1) // steps), -1, -steps):
        s1 = min(s0 + steps, n)
        rows = (s1 - s0) * mv
        # Both networks' activations as (rows, width) matrices; a_0 is the states.
        x_rows = take(tape.x, s0, s1).reshape(rows, 1)
        acts = [[x_rows] + [None if r is None else take(r, s0, s1).reshape(rows, -1) for r in rec]
                for rec in records]
        gate = sigmoid(acts[1][-1][:, 0])  # d softplus / d raw
        b_prime = mlp_input_derivative(nets[0], acts[0]).reshape(-1, mv)
        raw_prime = mlp_input_derivative(nets[1], acts[1])
        sigma_prime = (gate * raw_prime[:, 0]).reshape(-1, mv)

        # State adjoint, swept backward through the block's steps.
        k_blk, dw_blk, ell1_blk = ks[s0:s1], dws[s0:s1], ell1[s0:s1]
        gain = 1.0 + (b_prime - ell1_blk * sigma_prime * k_blk) * dt + sigma_prime * dw_blk
        a_blk = take(a, s0, s1)
        for i in range(s1 - s0 - 1, -1, -1):
            xbar[s0 + i] = a_blk[i] + xbar[s0 + i + 1] * gain[i]
        xbar_next = xbar[s0 + 1 : s1 + 1]

        drift_adj = (xbar_next * dt).reshape(-1, 1)
        sigma_adj = (xbar_next * (dw_blk - ell1_blk * k_blk * dt)).reshape(-1) * gate
        for i, adj in enumerate((drift_adj, sigma_adj.reshape(-1, 1))):
            bundles[i] = _add_into(bundles[i], mlp_batch_backward(nets[i], acts[i], adj))
    del records, acts

    # Memory adjoint: K_k feeds X_{k+1} and K_{k+1}; suffix-sum the direct
    # contributions to get kbar_{k+1} for the ell2 gradient.
    k_direct = xbar[1:] * (-ell1 * sigma * dt)
    suffix = np.cumsum(k_direct[::-1], axis=0)[::-1]
    kbar_next = np.vstack((suffix[1:], np.zeros((1, mv))))

    ell1_adj = (xbar[1:] * (-sigma * ks[:-1] * dt)).sum(axis=1).reshape(-1, 1)
    ell1_bundle = mlp_batch_backward(model.ell1_net, tape.ell1_acts, ell1_adj)

    if model.clamp_ell2:
        ell2_bundle = zero_gradients(model.ell2_net)
    else:
        ell2_adj = (kbar_next * dws).sum(axis=1).reshape(-1, 1)
        ell2_bundle = mlp_batch_backward(model.ell2_net, tape.ell2_acts, ell2_adj)

    return ModelGradients(*bundles, ell1_bundle, ell2_bundle)
