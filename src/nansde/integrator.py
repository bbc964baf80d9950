"""Euler simulation of the neural SDE generator, with pathwise gradients.

The generator is driven by the NA-noise Z of a learned memory process K,

    X_{k+1} = X_k + b(X_k) dt + sigma(X_k) dZ_k,     X_0 = x0,
    dZ_k = dW_k - ell1(t_k) K_k dt,
    K_{k+1} = K_k + ell2(t_k) dW_k,                  K_0 = 0,

where b, sigma, ell1, ell2 are scalar networks and sigma is kept strictly
positive by a softplus with a small floor.  Clamping ell2 to zero freezes
K at zero, so dZ is dW and the system collapses to the plain SDE
dX = b dt + sigma dW.

One batched Euler sweep simulates every path and only steps; divergence of X
or K is found after it, and a path that left the admissible region is masked
as dead rather than stopping the others.  Z never reads X, so ell1, ell2, K
and dZ are built in whole before the sweep, by :func:`na_noise`.  The drift
and diffusion networks have equal widths and run as one stack of two
networks through the package's one network forward
(``neural.stacked_forward``): each step maps the states through both at once
and writes the new states in place with the one X update,
:func:`euler_x_step`.  The R^2 predictor in ``metrics`` runs on the same
functions.  The sweep records a tape: the states, the noise, and the
diffusion network's raw head at every (step, path) pair.  Its hidden-layer
activations go to one reused (2, m, width) buffer per layer, and sigma to
one reused row; neither is kept.  :func:`backpropagate` then differentiates
any scalar functional of the paths with respect to every network parameter
while holding the Brownian increments fixed (reparameterized gradients):
one reverse sweep over cache-sized blocks of steps rebuilds each block's
hidden activations and sigma from its recorded states and heads, bit for
bit the sweep's, and reads b', sigma' and the parameter gradients off them;
the ell networks, n rows each, are run again.  Besides the tape and the
adjoints it holds one whole-grid matrix, K, and block-sized buffers.
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
    stacked_forward,
    stacked_layers,
    tanh_slopes,
    zero_gradients,
)
from .noise import brownian_increments, memory_integral, na_increments
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


def euler_x_step(x, b, sigma, dz, dt: float, out: np.ndarray, scratch: np.ndarray):
    """The X update x + b dt + sigma dZ, written into ``out``.

    The Euler sweep calls it on (m,) vectors and ``metrics.r2_score`` on
    arrays that broadcast to (n_test, m_pred); ``scratch`` (shaped like
    ``out``) receives sigma dZ.  One order of operations gives both the same bits.
    """
    np.multiply(b, dt, out=out)
    out += x
    np.multiply(sigma, dz, out=scratch)
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
    dead column holds the placeholder 1 after the step where it diverged.
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
    """Everything a backward pass needs: states, Brownian and NA-noise
    increments, and the diffusion head the sweep stepped with.

    The tape keeps no hidden-layer activations, sigma or ell values: the
    backward rebuilds them from ``x``, the head and the step times.
    ``diffusion_head`` records the diffusion network's raw output at every
    (step, path) pair.  It is None on a tape simulated without recording; a
    backward pass takes it off the tape and frees it.

    ``dz`` holds the NA-noise increments the sweep stepped with; ``dw`` is
    kept for the ell2 gradient; unrecorded it is None, dW having waited in
    rows 1..n of ``x`` until the sweep overwrote them.  A path whose K crossed
    the divergence guard has K = 0 from its ``death_step`` on, so its dZ there
    is its dW.

    ``alive`` is ``death_step < 0``.  A dead column's X is 1 after its
    ``death_step``, its records past that step are unspecified, and it must
    be excluded from gradient computations.
    """

    model: NansdeModel
    x: np.ndarray  # (n_steps + 1, m)
    dz: np.ndarray  # (n_steps, m)
    dw: np.ndarray | None  # (n_steps, m)
    diffusion_head: np.ndarray | None  # (n_steps, m)
    death_step: np.ndarray  # (m,) int, first step X or K tripped the guard; -1 if none

    @property
    def alive(self) -> np.ndarray:
        return self.death_step < 0


def _first_bad_steps(a: np.ndarray, guard: float) -> np.ndarray:
    """Each column's first row where |a| > guard or a is not finite, -1 if none.
    A column's max and min clear it (a NaN fails both); only a failing column
    is scanned, so no temporary is larger than a column."""
    first = np.full(a.shape[1], -1)
    for j in np.flatnonzero(~((a.max(axis=0) <= guard) & (-guard <= a.min(axis=0)))):
        first[j] = np.argmax(~(np.abs(a[:, j]) <= guard))
    return first


# A diverged stream is counted, not announced: its overflow raises no warning.
@np.errstate(over="ignore", invalid="ignore")
def na_noise(model: NansdeModel, grid: TimeGrid, dw: np.ndarray):
    """(dZ, k_bad) of the (n, m) Brownian increments ``dw``, with the ells on the
    step times.  ``k_bad[j]`` is the first row r where column j's K is
    not finite or exceeds the divergence guard, -1 if none; K is zero from row
    r on, so dZ is dW there.  dZ is written over K's first n rows."""
    ell1, ell2 = kernel_values(model, grid.step_times())
    k = memory_integral(ell2, dw)
    k_bad = _first_bad_steps(k, DIVERGENCE_GUARD)
    for j in np.flatnonzero(k_bad >= 0):
        k[k_bad[j] :, j] = 0.0
    return na_increments(dw, ell1, k, grid.dt), k_bad


@np.errstate(over="ignore", invalid="ignore")
def simulate_batch_with_tape(
    model: NansdeModel, m: int, base_seed: NoiseSeed, record: bool = True
) -> SimTape:
    """Run the Euler scheme for m paths on streams base..base+m-1.

    Path j depends only on its own stream, so its values do not depend on
    how many paths are simulated together.  The sweep only steps; after it a
    path whose X or K turned non-finite or exceeded the divergence guard is
    marked dead at that step, its X pinned to 1 and its later records
    unspecified.  Each step's hidden activations overwrite one reused
    (2, m, width) buffer per layer, and its sigma one reused row; with
    ``record`` the diffusion head of every step is kept on the tape for
    :func:`backpropagate`.
    """
    if m < 1:
        raise ValueError(f"ensemble size must be >= 1, got {m}")
    grid = model.grid
    n, dt = grid.n_steps, grid.dt

    # Unrecorded, dW waits in x's rows 1..n until the sweep overwrites them.
    dw = np.empty((n, m)) if record else np.empty((n + 1, m))[1:]
    for j in range(m):
        dw[:, j] = brownian_increments(grid, base_seed.child(j))

    layers = stacked_layers((model.drift_net, model.diffusion_net), m)
    # Of the heads only the diffusion one is recorded: the backward pass reads no more.
    heads = np.empty((n, m)) if record else None

    # A recorded x is allocated before K: in the other order the heap reuses
    # the blocks freed by an earlier sweep less well.
    x = np.empty((n + 1, m)) if record else dw.base
    x[0] = model.x0
    x_rows = x[:, :, None]

    # Z never reads X, so dZ is filled in whole, over K's first n rows.
    dz, k_bad = na_noise(model, grid, dw)

    sigma, scratch = np.empty(m), np.empty(m)

    for step in range(n):
        h = stacked_forward(layers, x_rows[step])
        if record:
            heads[step] = h[1, :, 0]
        _sigma(h[1, :, 0], out=sigma)
        euler_x_step(x[step], h[0, :, 0], sigma, dz[step], dt, x[step + 1], scratch)

    # x[s + 1] and K_{s+1} are step s's update: a K first bad at row r dies at
    # step r - 1.  A path dies at the earlier of its X and K deaths.
    death_step = _first_bad_steps(x[1:], DIVERGENCE_GUARD)
    for j in np.flatnonzero(k_bad >= 0):
        if not 0 <= death_step[j] < k_bad[j]:
            death_step[j] = k_bad[j] - 1
    for j in np.flatnonzero(death_step >= 0):
        x[death_step[j] + 1 :, j] = 1.0

    return SimTape(model, x, dz, dw if record else None, heads, death_step)


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
    """Parameter gradients of sum_{k,i} x_adjoints[k,i] * X_k^{(j_i)}, where
    j_0 < j_1 < ... are the paths in ``columns``, an (m,) boolean mask of
    live paths (default: all of them); ``x_adjoints`` is (n_steps + 1,
    columns.sum()).  Bad input raises ValueError and leaves the tape as it
    was.  The Brownian increments are held fixed: a reparameterized gradient.

    The reverse sweep uses the recursion

        xbar_k = a_k + xbar_{k+1} (1 + b' dt + sigma' dZ_k)
        kbar_k = kbar_{k+1} - xbar_{k+1} ell1 sigma dt,   kbar_n = 0,

    and each network's parameter gradient is a batched backward pass with
    per-(step, path) adjoint weights.  ell1, ell2 and K, which only the
    ell1 gradient reads, come first: from a forward of the ell networks on
    the step times and from dW.  None reads X, so all have the sweep's bits
    on the live paths.  Then one reverse sweep over blocks of about
    ``BACKWARD_BLOCK_ROWS`` (step, path) rows does the rest: steps [0, s),
    [s, 2s), ... (the last block ragged), visited last block first.  A
    block gathers the participating columns of X, of the diffusion head
    record, of dZ, dW and K.  It rebuilds both networks' hidden activations
    and sigma from its states and heads with the sweep's own operations:
    each element takes the same operations in the same order at any row
    count, so it has the sweep's bits.  It forms each hidden layer's tanh
    slope 1 - a^2 once and takes b' and sigma' from them.  It runs the xbar
    recursion over its steps, from the one carried row xbar_{s1}, and both
    parameter passes on the same rows.  It adds its direct K contributions
    to the kbar suffix sum carried from the later blocks, and writes its
    steps' ell1 and ell2 adjoints, each a sum over the paths.  Each
    network's gradient is the sum of its per-block bundles, added in the
    order the sweep visits the blocks; the ell networks' passes run last,
    on n rows.
    """
    if tape.diffusion_head is None:
        raise ValueError("tape holds no head record: it was simulated "
                         "without recording, or it was backpropagated already")
    model = tape.model
    alive = tape.alive
    columns = alive if columns is None else np.asarray(columns)
    if columns.dtype != bool or columns.shape != alive.shape or (columns & ~alive).any():
        raise ValueError(f"columns must be a boolean mask of live paths, shape {alive.shape}")
    cols = np.flatnonzero(columns)
    if cols.size == 0:
        raise ValueError("no surviving columns to backpropagate through")

    n, dt = model.grid.n_steps, model.grid.dt
    m, mv = columns.size, cols.size
    a = np.asarray(x_adjoints, dtype=float)
    if a.shape != (n + 1, mv):
        raise ValueError(f"adjoint shape {a.shape} does not match the columns' {(n + 1, mv)}")

    def take(arr, s0, s1):
        """arr at steps s0..s1-1 and the participating columns."""
        return arr[s0:s1] if mv == m else np.take(arr[s0:s1], cols, axis=1)

    # The ell networks on the step times, as the sweep ran them, and K: a
    # dead path's K may overflow, but no block reads it.
    t_rows = model.grid.step_times()[:, None]
    ell1_acts = mlp_forward_batch_cached(model.ell1_net, t_rows)
    ell1 = ell1_acts[-1]  # (n, 1), broadcasts over columns
    ell2_acts = None if model.clamp_ell2 else mlp_forward_batch_cached(model.ell2_net, t_rows)
    with np.errstate(over="ignore", invalid="ignore"):
        k = memory_integral(np.zeros(n) if ell2_acts is None else ell2_acts[-1][:, 0], tape.dw)
    ell1_adj, ell2_adj = np.empty((n, 1)), np.empty((n, 1))

    # The tape lets go of its head record, which is freed after the sweep.
    nets = (model.drift_net, model.diffusion_net)
    head = tape.diffusion_head
    tape.diffusion_head = None
    steps = max(1, BACKWARD_BLOCK_ROWS // mv)
    hidden, built = [], 0  # the stacked hidden layers, built for `built` rows
    # A block's xbar_{s0..s1} are the last rows of xbar; its last, xbar_{s1},
    # is carried over from the block after it.
    xbar = np.empty((steps + 1, mv))
    xbar[steps] = a[n]
    kbar = None  # kbar_{s1}, the suffix sum of the later blocks' direct K contributions
    bundles = [None, None]
    for s0 in range(steps * ((n - 1) // steps), -1, -steps):
        s1 = min(s0 + steps, n)
        size = s1 - s0
        rows = size * mv
        if rows != built:  # only the first block visited can be ragged
            hidden = None  # freed before the full blocks' layers are built
            hidden, built = stacked_layers(nets, mv, size)[:-1], rows
        # Both networks' activations as (rows, width) matrices; a_0 is the states.
        x_rows = take(tape.x, s0, s1).reshape(rows, 1)
        stacked_forward(hidden, x_rows)
        head_rows = take(head, s0, s1).reshape(rows, 1)
        acts = [[x_rows] + [layer[3][i] for layer in hidden] + [last]
                for i, last in enumerate((None, head_rows))]
        slopes = [tanh_slopes(act) for act in acts]
        gate = sigmoid(head_rows[:, 0])  # d softplus / d raw
        b_prime = mlp_input_derivative(nets[0], acts[0], slopes[0]).reshape(-1, mv)
        raw_prime = mlp_input_derivative(nets[1], acts[1], slopes[1])
        sigma_prime = (gate * raw_prime[:, 0]).reshape(-1, mv)
        sigma = _sigma(head_rows).reshape(-1, mv)

        # State adjoint, swept backward through the block's steps.
        dz, dw = take(tape.dz, s0, s1), take(tape.dw, s0, s1)
        gain = 1.0 + b_prime * dt + sigma_prime * dz
        xb = xbar[steps - size :]  # xb[i] is xbar_{s0 + i}
        for i in range(size - 1, -1, -1):
            xb[i] = a[s0 + i] + xb[i + 1] * gain[i]
        xbar_next = xb[1:]

        drift_adj = (xbar_next * dt).reshape(-1, 1)
        sigma_adj = (xbar_next * dz).reshape(-1) * gate
        for i, adj in enumerate((drift_adj, sigma_adj.reshape(-1, 1))):
            part = mlp_batch_backward(nets[i], acts[i], adj, slopes[i])
            bundles[i] = _add_into(bundles[i], part)

        # K_k feeds X_{k+1} and K_{k+1}: on paths that never diverged, K is the sweep's.
        ell1_adj[s0:s1, 0] = (xbar_next * (-sigma * take(k, s0, s1) * dt)).sum(axis=1)
        if ell2_acts is not None:
            # Suffix-sum the direct contributions into kbar_{k+1} for the
            # ell2 gradient.  The last block starts from no sum, not from a
            # +0.0 that would flip a -0.0.
            k_direct = xbar_next * (-ell1[s0:s1] * sigma * dt)
            if kbar is not None:
                k_direct[-1] += kbar[0]
            suffix = np.cumsum(k_direct[::-1], axis=0)[::-1]
            kbar_next = np.vstack((suffix[1:], np.zeros((1, mv)) if kbar is None else kbar))
            ell2_adj[s0:s1, 0] = (kbar_next * dw).sum(axis=1)
            kbar = suffix[:1]
        xbar[steps] = xb[0]
        del acts, slopes  # before the next block makes its own
    del head, hidden, k

    ell1_bundle = mlp_batch_backward(model.ell1_net, ell1_acts, ell1_adj)
    if ell2_acts is None:
        ell2_bundle = zero_gradients(model.ell2_net)
    else:
        ell2_bundle = mlp_batch_backward(model.ell2_net, ell2_acts, ell2_adj)

    return ModelGradients(*bundles, ell1_bundle, ell2_bundle)
