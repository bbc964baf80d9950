"""Likelihood calibration of the generator against one observed path.

The loss is the negative mean log-likelihood of the observed log-returns
under a Gaussian kernel density estimate built, at every time step, from
the returns of a simulated ensemble:

    L(theta) = -(1/T) sum_t log p_t(r_t),
    p_t = KDE of {log(X^(i)_{t+1} / X^(i)_t) : i = 1..M}.

Gradients flow through the simulation pathwise (fixed noise) and through
the kernel density; the KDE bandwidth is treated as a constant during
backpropagation.  Each iteration draws fresh Brownian increments from an
iteration-indexed stream, so a whole run is reproducible from its config.

Paths whose simulation diverged or went non-positive (log-returns would be
undefined) are dropped from the estimate.  If more than 20% of an
iteration's paths are dropped, that iteration still takes its gradient
step but is never recorded as a best-loss improvement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError, TrainingError
from .integrator import ModelGradients, NansdeModel, backpropagate, simulate_batch_with_tape
from .neural import init_params
from .noise import Path
from .optim import Adam
from .rng import NoiseSeed

BANDWIDTH_FLOOR = 1e-6
DROP_CAP = 0.2  # max fraction of dropped paths for an iteration to count

DEFAULT_WIDTHS = (1, 20, 1)  # one hidden layer of 20 tanh units


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule; defaults follow the reference setup."""

    seed: NoiseSeed
    m: int = 128
    lr: float = 0.004
    max_iters: int = 1000
    early_stop_patience: int = 200
    kde_floor: float = 1e-12
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"ensemble size must be >= 2, got {self.m}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 <= self.early_stop_patience <= self.max_iters:
            raise ValueError(
                f"patience must lie in [0, max_iters], got {self.early_stop_patience}"
            )
        if not 0.0 < self.kde_floor < math.inf:
            raise ValueError(f"kde_floor must be positive and finite, got {self.kde_floor}")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")
        if not 0.0 < self.adam_eps < math.inf:
            raise ValueError(f"Adam epsilon must be positive and finite, got {self.adam_eps}")

    def iteration_seed(self, iteration: int) -> NoiseSeed:
        """Base noise stream of one training iteration (m consecutive streams)."""
        return self.seed.child(iteration * self.m)


@dataclass(frozen=True)
class LogReturnSeries:
    """Log-differences r_t = log(X_{t+1} / X_t) of a positive path, shape
    (n,), or of equal-length paths, shape (paths, n) with one row each."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.ndim not in (1, 2) or r.size == 0:
            raise ValueError(f"returns must be a nonempty vector or matrix, got shape {r.shape}")
        if not np.isfinite(r).all():
            raise ValueError("returns must be finite")

    def __len__(self) -> int:
        """Returns per path."""
        return self.r.shape[-1]


def log_returns(path: Path) -> LogReturnSeries:
    """Log-returns of a strictly positive path."""
    values = path.values
    bad = np.flatnonzero(values <= 0.0)
    if bad.size:
        raise DataError(f"non-positive path value at index {bad[0]} (log undefined)")
    return LogReturnSeries(np.log(values[1:] / values[:-1]))


def silverman_bandwidth(samples: np.ndarray) -> np.ndarray:
    """1.06 std M^{-1/5} of each row (last axis), floored so identical samples stay usable."""
    samples = np.asarray(samples, dtype=float)
    h = 1.06 * samples.std(axis=-1) * samples.shape[-1] ** (-0.2)
    return np.maximum(BANDWIDTH_FLOOR, h)


def _nll(
    r_obs: np.ndarray,
    samples: np.ndarray,
    floor: float,
    bandwidths: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean negative log KDE likelihood of r_obs given per-step samples.

    ``samples`` has shape (T, M): row t holds the generated returns at step
    t.  Returns the loss and its gradient with respect to every sample
    (bandwidths held constant).  Two (T, M) buffers are made, z and phi, in
    the layout of ``samples``; the gradient is written over z.
    """
    t_len, m = samples.shape
    if r_obs.shape != (t_len,):
        raise ValueError(f"observed returns {r_obs.shape} do not match samples {samples.shape}")
    h = silverman_bandwidth(samples) if bandwidths is None else np.asarray(bandwidths, dtype=float)
    if h.shape != (t_len,):
        raise ValueError(f"need one bandwidth per step, got shape {h.shape}")
    z = np.subtract(r_obs[:, None], samples)
    z /= h[:, None]
    phi = np.multiply(z, -0.5)
    phi *= z
    np.exp(phi, out=phi)
    phi /= math.sqrt(2.0 * math.pi)
    density = phi.mean(axis=1) / h
    floored = np.maximum(floor, density)
    loss = float(np.mean(-np.log(floored)))
    grad = np.negative(z, out=z)
    grad *= phi
    grad /= floored[:, None] * (t_len * m) * h[:, None] ** 2
    grad[~(density > floor)] = 0.0
    return loss, grad


def _ensemble_nll(
    r_obs: np.ndarray,
    x: np.ndarray,
    alive: np.ndarray,
    floor: float,
    bandwidths: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean negative log KDE likelihood of r_obs given simulated states.

    ``x`` is an (n_points, M) state matrix.  Only usable paths count: those
    that stayed alive and strictly positive, so their log-returns exist.
    Fewer than two is an error because the KDE needs a spread.  Returns the
    loss, the usable-path mask and the gradient of the loss with respect to
    the usable paths' states: an (n_points, usable) matrix, one column per
    usable path in path order, as :func:`backpropagate` takes it.
    """
    valid = alive & (x > 0.0).all(axis=0)
    n_valid = int(valid.sum())
    if n_valid < 2:
        raise TrainingError(
            f"only {n_valid} of {x.shape[1]} generated paths usable (need at least 2)"
        )
    # Boolean column indexing copies in Fortran order, also when every path
    # is usable, and the returns and the likelihood's buffers follow it: the
    # bandwidths' std and the density's mean then sum each step's samples in
    # sequence, not pairwise.  Passing x itself would change their bits.
    xs = x[:, valid]
    returns = np.divide(xs[1:], xs[:-1])
    np.log(returns, out=returns)
    loss, return_grad = _nll(r_obs, returns, floor, bandwidths)

    # Chain through r_t = log X_{t+1} - log X_t into per-state adjoints; the
    # returns' buffer takes each quotient.
    adj = np.zeros_like(xs)
    adj[1:] += np.divide(return_grad, xs[1:], out=returns)
    adj[:-1] -= np.divide(return_grad, xs[:-1], out=returns)
    return loss, valid, adj


class IterationRecord(NamedTuple):
    """One training iteration: its loss (inf if skipped), its usable paths out of
    m, and whether too many were dropped or a non-finite step was skipped."""

    loss: float
    usable: int
    m: int
    capped: bool
    skipped: bool

    @property
    def eligible(self) -> bool:
        return not (self.capped or self.skipped)


@dataclass
class TrainState:
    """Mutable loop state: current and best models, optimizer, iteration records."""

    model: NansdeModel
    adam: Adam
    best_model: NansdeModel
    best_iteration: int = -1
    records: list[IterationRecord] = field(default_factory=list)

    @property
    def best_loss(self) -> float:
        """The best iteration's loss; inf while ``best_iteration`` is -1 (none eligible)."""
        return self.records[self.best_iteration].loss if self.best_iteration >= 0 else math.inf

    @property
    def warnings(self) -> list[str]:
        """Each capped or skipped iteration, then why the initial networks are
        returned: none was eligible, or iteration 0 was and most later ones capped."""
        lines = []
        for i, rec in enumerate(self.records):
            if rec.capped:
                lines.append(f"iteration {i}: {rec.m - rec.usable}/{rec.m} paths dropped; "
                             "not eligible as best")
            if rec.skipped:
                lines.append(f"iteration {i}: non-finite loss or gradient; step skipped")
        n, capped = len(self.records), sum(rec.capped for rec in self.records)
        if self.best_iteration == -1:
            lines.append(f"no iteration of {n} was eligible as best; returning the initial networks")
        if self.best_iteration == 0 and 2 * capped > n - 1:
            lines.append(f"no iteration improved on iteration 0: {capped} of the {n - 1} later "
                         "iterations dropped too many paths to be eligible; "
                         "returning the initial networks")
        return lines


def _trainable_arrays(model: NansdeModel) -> list[np.ndarray]:
    return [a for name in model.trainable_names() for a in model.net(name).arrays()]


def init_state(
    observed_path: Path,
    cfg: TrainConfig,
    init_seed: int,
    widths=DEFAULT_WIDTHS,
    clamp_ell2: bool = False,
) -> TrainState:
    """Fresh networks, fresh optimizer, start value taken from the data."""
    nets = [init_params(widths, init_seed, tag=tag) for tag in range(4)]
    model = NansdeModel(
        *nets,
        grid=observed_path.grid,
        x0=float(observed_path.values[0]),
        clamp_ell2=clamp_ell2,
    )
    adam = Adam(
        [a.shape for a in _trainable_arrays(model)],
        lr=cfg.lr,
        beta1=cfg.adam_beta1,
        beta2=cfg.adam_beta2,
        eps=cfg.adam_eps,
    )
    return TrainState(model=model, adam=adam, best_model=model.copy())


def loss_and_gradients(
    model: NansdeModel,
    observed: LogReturnSeries,
    cfg: TrainConfig,
    iteration: int,
    bandwidths=None,
) -> tuple[float, ModelGradients, int]:
    """Pathwise loss and full parameter gradient for one iteration's noise.

    Simulates the iteration's ensemble, scores it against the observed
    returns and backpropagates through the fixed increments.  Returns the
    loss, the gradients and the number of usable (fully positive) paths.
    ``bandwidths`` overrides the per-step Silverman bandwidths, which pins
    the KDE smoothing while parameters are perturbed.
    """
    tape = simulate_batch_with_tape(model, cfg.m, cfg.iteration_seed(iteration))
    try:
        loss, valid, adj = _ensemble_nll(observed.r, tape.x, tape.alive, cfg.kde_floor, bandwidths)
    except TrainingError as exc:
        raise TrainingError(f"iteration {iteration}: {exc}") from exc
    grads = backpropagate(tape, adj, columns=valid)
    return loss, grads, int(valid.sum())


def train_step(state: TrainState, observed: LogReturnSeries, cfg: TrainConfig) -> TrainState:
    """One iteration: simulate, score, backpropagate, Adam-update, and append
    its record.  A non-finite loss or gradient skips the parameter update; an
    iteration with too many dropped paths updates them.  Neither can be best.
    """
    i = len(state.records)
    model = state.model
    loss, grads, n_valid = loss_and_gradients(model, observed, cfg, i)
    capped = (cfg.m - n_valid) > DROP_CAP * cfg.m
    skipped = not (np.isfinite(loss) and grads.all_finite())
    record = IterationRecord(math.inf if skipped else loss, n_valid, cfg.m, capped, skipped)
    if record.eligible and loss < state.best_loss:
        state.best_iteration = i
        state.best_model = model.copy()
    state.records.append(record)
    if not skipped:
        grad_arrays = [a for name in model.trainable_names() for a in grads.bundle(name).arrays()]
        state.adam.step(_trainable_arrays(model), grad_arrays)
    return state


def fit(
    observed_path: Path,
    cfg: TrainConfig,
    init_seed: int,
    widths=DEFAULT_WIDTHS,
    clamp_ell2: bool = False,
) -> tuple[NansdeModel, TrainState]:
    """Run the training loop and return the best-loss model with its state.

    Stops after ``max_iters`` iterations or once ``early_stop_patience``
    iterations have passed since the best one, or since the start while none
    was eligible (so patience 0 stops after the first iteration).  If none
    was, the returned model is the initial one and ``state.warnings`` says so.
    A ``TrainingError`` that aborts the fit carries the state as its ``state``.
    """
    observed = log_returns(observed_path)
    state = init_state(observed_path, cfg, init_seed, widths, clamp_ell2)
    try:
        for _ in range(cfg.max_iters):
            train_step(state, observed, cfg)
            if len(state.records) - 1 - state.best_iteration >= cfg.early_stop_patience:
                break
    except TrainingError as exc:
        exc.state = state
        raise
    return state.best_model, state
