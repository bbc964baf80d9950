"""Euler simulation of the neural SDE generator, with pathwise gradients.

The generator couples a state and a memory process,

    X_{k+1} = X_k + (b(X_k) - ell1(t_k) sigma(X_k) K_k) dt + sigma(X_k) dW_k
    K_{k+1} = K_k + ell2(t_k) dW_k,          X_0 = x0,  K_0 = 0,

where b, sigma, ell1, ell2 are scalar networks and sigma is kept strictly
positive by a softplus with a small floor.  Clamping ell2 to zero freezes
K at zero and collapses the system to the plain SDE dX = b dt + sigma dW.

One batched Euler sweep simulates every path; a path that leaves the
admissible region is masked as dead rather than stopping the others.  The
sweep records a tape; :func:`backpropagate` then differentiates any scalar
functional of the paths with respect to every network parameter while
holding the Brownian increments fixed (reparameterized gradients).  The
backward pass is organized as one batched network sweep over all (step,
path) pairs plus a sequential state-adjoint recursion, so its cost matches
the forward pass.
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
    zero_gradients,
)
from .noise import brownian_increments
from .rng import NoiseSeed

SIGMA_FLOOR = 1e-4
DIVERGENCE_GUARD = 1e12

# Network roles, in the fixed order used for gradient flattening and
# parameter-initialization tags.
NET_NAMES = ("drift", "diffusion", "ell1", "ell2")


def softplus(x):
    """log(1 + e^x) without overflow for large x."""
    return np.logaddexp(0.0, x)


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
    sigma = softplus(diffusion_acts[-1][:, 0]) + SIGMA_FLOOR
    return b, sigma, drift_acts, diffusion_acts


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
    """Everything a backward pass needs: states, increments, kernel values.

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
    alive: np.ndarray  # (m,) bool
    death_step: np.ndarray  # (m,) int, -1 while alive
    consumed: bool = False

    def consume(self):
        if self.consumed:
            raise RuntimeError("simulation tape already consumed by a backward pass")
        self.consumed = True


def simulate_batch_with_tape(model: NansdeModel, m: int, base_seed: NoiseSeed) -> SimTape:
    """Run the Euler scheme for m paths on streams base..base+m-1.

    Path j depends only on its own stream, so its values do not depend on
    how many paths are simulated together.  A path that turns non-finite or
    exceeds the divergence guard is marked dead at that step and pinned to
    placeholder values; the others carry on.
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

    x = np.empty((n + 1, m))
    k = np.empty((n + 1, m))
    x[0] = model.x0
    k[0] = 0.0
    alive = np.ones(m, dtype=bool)
    death_step = np.full(m, -1)

    cur_x = x[0].copy()
    cur_k = k[0].copy()
    for step in range(n):
        b, sigma, _, _ = coefficients(model, cur_x)
        new_k = cur_k + ell2[step] * dw[step]
        new_x = cur_x + (b - ell1[step] * sigma * cur_k) * dt + sigma * dw[step]

        bad = ~(np.isfinite(new_x) & np.isfinite(new_k))
        bad |= (np.abs(new_x) > DIVERGENCE_GUARD) | (np.abs(new_k) > DIVERGENCE_GUARD)
        bad &= alive
        if bad.any():
            alive[bad] = False
            death_step[bad] = step
        if not alive.all():
            # Pin dead columns to harmless values so the remaining steps stay
            # silent; they are masked out of losses and gradients.
            new_x[~alive] = 1.0
            new_k[~alive] = 0.0
        x[step + 1] = new_x
        k[step + 1] = new_k
        cur_x, cur_k = new_x.copy(), new_k.copy()

    return SimTape(model, x, k, dw, ell1, ell2, ell1_acts, ell2_acts, alive, death_step)


def simulate_ensemble(model: NansdeModel, m: int, base_seed: NoiseSeed) -> Ensemble:
    """The paths of :func:`simulate_batch_with_tape` without the tape."""
    tape = simulate_batch_with_tape(model, m, base_seed)
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
    pass with the appropriate per-(step, path) adjoint weights.
    """
    tape.consume()
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
    a = a[:, cols]
    xs = tape.x[:, cols]
    ks = tape.k[:, cols]
    dws = tape.dw[:, cols]
    mv = cols.size
    ell1 = tape.ell1_vals[:, None]  # (n, 1), broadcasts over columns

    # One big batched pass over all (step, path) pairs for the state nets.
    _, sigma, drift_acts, diff_acts = coefficients(model, xs[:-1])
    _, b_prime = mlp_batch_backward(model.drift_net, drift_acts, np.ones((n * mv, 1)), with_param_grads=False)
    b_prime = b_prime.reshape(n, mv)

    gate = sigmoid(diff_acts[-1][:, 0])  # d softplus / d raw
    sigma = sigma.reshape(n, mv)
    _, raw_prime = mlp_batch_backward(model.diffusion_net, diff_acts, np.ones((n * mv, 1)), with_param_grads=False)
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
    drift_bundle, _ = mlp_batch_backward(model.drift_net, drift_acts, drift_adj, with_param_grads=True)

    sigma_adj = (xbar[1:] * (dws - ell1 * ks[:-1] * dt)).reshape(-1) * gate
    diff_bundle, _ = mlp_batch_backward(
        model.diffusion_net, diff_acts, sigma_adj.reshape(-1, 1), with_param_grads=True
    )

    ell1_adj = (xbar[1:] * (-sigma * ks[:-1] * dt)).sum(axis=1).reshape(-1, 1)
    ell1_bundle, _ = mlp_batch_backward(model.ell1_net, tape.ell1_acts, ell1_adj, with_param_grads=True)

    if model.clamp_ell2:
        ell2_bundle = zero_gradients(model.ell2_net)
    else:
        ell2_adj = (kbar_next * dws).sum(axis=1).reshape(-1, 1)
        ell2_bundle, _ = mlp_batch_backward(model.ell2_net, tape.ell2_acts, ell2_adj, with_param_grads=True)

    return ModelGradients(drift_bundle, diff_bundle, ell1_bundle, ell2_bundle)
