"""A second, separately written implementation of what the benchmark checks.

The benchmark never compares the program's outputs with a stored copy of an
earlier output.  It recomputes them here instead: the checkpoint parse, the
tanh MLP, the Euler step of the (X, K) pair, the Gaussian-KDE likelihood with
Silverman bandwidths, the aggregated-variance Hurst estimate and the |return|
autocorrelation.  The only calls into the package are ``brownian_increments``
and ``unit_grid``, so that a re-simulation uses the very increments the
program drew, addressed as ``rng.py`` documents:

* training iteration ``i`` with ``m`` paths and seed ``s`` uses the noise
  streams ``NoiseSeed(s, i * m + j)``, ``j = 0..m-1``;
* ``simulate_ensemble(model, m, NoiseSeed(s, first))`` uses the streams
  ``NoiseSeed(s, first + j)``.

Input series (exact fBm, the frozen-generator path) are drawn here too, from
numpy generators seeded by the benchmark, so they do not depend on the
program under test.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass

import numpy as np

# The model's own definitions, restated rather than imported.
SIGMA_FLOOR = 1e-4  # sigma(x) = softplus(raw(x)) + SIGMA_FLOOR
DIVERGENCE_GUARD = 1e12  # a path dies once |X| or |K| exceeds this
BANDWIDTH_FLOOR = 1e-6  # Silverman bandwidths are floored here
CHECKPOINT_TAG = "nansde-mlp v1"
NET_NAMES = ("drift", "diffusion", "ell1", "ell2")


# ---------------------------------------------------------------------------
# Networks and checkpoints
# ---------------------------------------------------------------------------


def parse_mlp(text: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Layers ``(W (n_out, n_in), b (n_out,))`` of one checkpoint file."""
    tokens = [line.strip() for line in text.splitlines() if line.strip()]
    if not tokens or tokens[0] != CHECKPOINT_TAG:
        raise ValueError("not a network checkpoint")
    head = tokens[1].split()
    if head[0] != "widths":
        raise ValueError("checkpoint has no widths line")
    widths = [int(w) for w in head[1:]]
    pos = 2
    layers = []
    for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
        if tokens[pos] != f"weight {i}":
            raise ValueError(f"expected 'weight {i}', got {tokens[pos]!r}")
        w = np.array([float(v) for v in tokens[pos + 1 : pos + 1 + n_out * n_in]])
        pos += 1 + n_out * n_in
        if tokens[pos] != f"bias {i}":
            raise ValueError(f"expected 'bias {i}', got {tokens[pos]!r}")
        b = np.array([float(v) for v in tokens[pos + 1 : pos + 1 + n_out]])
        pos += 1 + n_out
        if w.size != n_out * n_in or b.size != n_out:
            raise ValueError(f"layer {i} is truncated")
        layers.append((w.reshape(n_out, n_in), b))
    if pos != len(tokens):
        raise ValueError("trailing content after the last layer")
    return layers


def format_mlp(layers) -> str:
    """The checkpoint text of a network, at full double precision."""
    widths = [layers[0][0].shape[1]] + [w.shape[0] for w, _ in layers]
    lines = [CHECKPOINT_TAG, "widths " + " ".join(str(n) for n in widths)]
    for i, (w, b) in enumerate(layers):
        lines.append(f"weight {i}")
        lines.extend(f"{v:.17g}" for v in w.ravel())
        lines.append(f"bias {i}")
        lines.extend(f"{v:.17g}" for v in b)
    return "\n".join(lines) + "\n"


def random_mlp(widths, rng: np.random.Generator):
    """Fan-in uniform weights and zero biases."""
    layers = []
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        bound = math.sqrt(1.0 / n_in)
        layers.append((rng.uniform(-bound, bound, size=(n_out, n_in)), np.zeros(n_out)))
    return layers


def affine_mlp(w: float, b: float):
    """The one-layer network f(x) = w x + b."""
    return [(np.array([[float(w)]]), np.array([float(b)]))]


def mlp(layers, x: np.ndarray) -> np.ndarray:
    """Scalar network on a vector of inputs: tanh after all but the last layer."""
    h = np.asarray(x, dtype=float).reshape(-1, 1)
    for i, (w, b) in enumerate(layers):
        h = h @ w.T + b
        if i < len(layers) - 1:
            h = np.tanh(h)
    return h[:, 0]


def softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@dataclass
class Model:
    nets: dict  # name -> layers
    x0: float
    clamp_ell2: bool


def read_model(checkpoint_dir, x0: float, clamp_ell2: bool) -> Model:
    """The four networks of a checkpoint directory, anchored at ``x0``."""
    d = pathlib.Path(checkpoint_dir)
    nets = {name: parse_mlp((d / f"{name}.txt").read_text()) for name in NET_NAMES}
    return Model(nets, float(x0), clamp_ell2)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def program_increments(n_steps: int, seed: int, first_stream: int, m: int) -> np.ndarray:
    """(n_steps, m) Brownian increments on the program's streams first..first+m-1."""
    from nansde import NoiseSeed, brownian_increments, unit_grid

    grid = unit_grid(n_steps)
    return np.column_stack(
        [brownian_increments(grid, NoiseSeed(seed, first_stream + j)) for j in range(m)]
    )


def simulate(model: Model, dw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euler scheme on [0, 1] driven by ``dw`` (n_steps, m).

    Returns the states (n_steps + 1, m) and the mask of paths that never
    left the admissible region.  K is identically zero when ell2 is clamped.
    """
    n, m = dw.shape
    dt = 1.0 / n
    t = dt * np.arange(n)
    ell1 = mlp(model.nets["ell1"], t)
    ell2 = np.zeros(n) if model.clamp_ell2 else mlp(model.nets["ell2"], t)
    x = np.empty((n + 1, m))
    x[0] = model.x0
    k = np.zeros(m)
    alive = np.ones(m, dtype=bool)
    for step in range(n):
        cur = x[step]
        b = mlp(model.nets["drift"], cur)
        sigma = softplus(mlp(model.nets["diffusion"], cur)) + SIGMA_FLOOR
        nxt = cur + (b - ell1[step] * sigma * k) * dt + sigma * dw[step]
        k = k + ell2[step] * dw[step]
        with np.errstate(invalid="ignore"):
            bad = ~(np.isfinite(nxt) & np.isfinite(k))
            bad |= (np.abs(nxt) > DIVERGENCE_GUARD) | (np.abs(k) > DIVERGENCE_GUARD)
        alive &= ~bad
        nxt[~alive] = 1.0
        k[~alive] = 0.0
        x[step + 1] = nxt
    return x, alive


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


def kde_nll(r_obs: np.ndarray, samples: np.ndarray, floor: float) -> float:
    """-(1/T) sum_t log max(floor, KDE_t(r_t)); ``samples`` is (T, M)."""
    t_len, m = samples.shape
    h = 1.06 * samples.std(axis=1) * m ** (-0.2)
    h = np.maximum(h, BANDWIDTH_FLOOR)
    total = 0.0
    for t in range(t_len):
        z = (r_obs[t] - samples[t]) / h[t]
        density = float(np.sum(np.exp(-0.5 * z * z))) / (m * h[t] * math.sqrt(2.0 * math.pi))
        total -= math.log(max(floor, density))
    return total / t_len


def training_nll(model: Model, observed: np.ndarray, seed: int, iteration: int,
                 m: int, floor: float) -> float:
    """The loss the program scores for ``model`` on one iteration's noise."""
    n = observed.size - 1
    x, alive = simulate(model, program_increments(n, seed, iteration * m, m))
    usable = alive & (x > 0.0).all(axis=0)
    if usable.sum() < 2:
        raise ValueError(f"only {int(usable.sum())} usable paths")
    xs = x[:, usable]
    returns = np.log(xs[1:] / xs[:-1])
    r_obs = np.log(observed[1:] / observed[:-1])
    return kde_nll(r_obs, returns, floor)


# ---------------------------------------------------------------------------
# Evaluation statistics
# ---------------------------------------------------------------------------


def hurst(values: np.ndarray) -> float:
    """Aggregated-variance Hurst index: half the slope of log E[(X_{t+l}-X_t)^2]
    against log l over the dyadic lags l = 1, 2, 4, ... <= n/8."""
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    lags = 2 ** np.arange(int(math.log2(n // 8)) + 1)
    log_v = np.array([math.log(np.mean((values[l:] - values[:-l]) ** 2)) for l in lags])
    slope, _ = np.polyfit(np.log(lags.astype(float)), log_v, 1)
    return float(slope) / 2.0


def abs_return_acf(r: np.ndarray, s: int) -> np.ndarray:
    """Pearson correlation of |r_t| with |r_{t+tau}|, tau = 1..s, for each
    column of ``r`` (T,) or (T, m); the result is (s,) or (s, m)."""
    a = np.abs(np.asarray(r, dtype=float))
    out = np.empty((s,) + a.shape[1:])
    for tau in range(1, s + 1):
        x = a[:-tau] - a[:-tau].mean(axis=0)
        y = a[tau:] - a[tau:].mean(axis=0)
        out[tau - 1] = (x * y).sum(axis=0) / np.sqrt((x * x).sum(axis=0) * (y * y).sum(axis=0))
    return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def fbm(h: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact fBm on the n + 1 nodes of [0, 1] (Davies-Harte), starting at 0."""
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * (np.abs(k + 1) ** (2 * h) - 2 * k ** (2 * h) + np.abs(k - 1) ** (2 * h))
    row = np.concatenate((gamma, gamma[-2:0:-1]))
    lam = np.clip(np.fft.rfft(row).real, 0.0, None)
    size = row.size
    spec = np.sqrt(lam / size) * (rng.standard_normal(lam.size) + 1j * rng.standard_normal(lam.size))
    spec[0] = math.sqrt(lam[0] / size) * rng.standard_normal() * math.sqrt(2.0)
    spec[-1] = math.sqrt(lam[-1] / size) * rng.standard_normal() * math.sqrt(2.0)
    fgn = np.fft.irfft(spec, size)[:n] * size / math.sqrt(2.0)
    return np.concatenate(([0.0], np.cumsum(fgn))) * n ** (-h)


def frozen_generator() -> Model:
    """The known model whose path the training smoke test fits: b(x) = 0.05 x,
    sigma = 0.3, ell1(t) = 1 - 0.5 t, ell2 = 0.8, started at 1."""
    raw_sigma = math.log(math.expm1(0.3 - SIGMA_FLOOR))
    nets = {
        "drift": affine_mlp(0.05, 0.0),
        "diffusion": affine_mlp(0.0, raw_sigma),
        "ell1": affine_mlp(-0.5, 1.0),
        "ell2": affine_mlp(0.0, 0.8),
    }
    return Model(nets, 1.0, False)


# ---------------------------------------------------------------------------
# Closed-form checks of this module
# ---------------------------------------------------------------------------


def self_check() -> list[str]:
    """Problems found when the reference is run against closed forms."""
    problems = []

    # Zero drift and constant sigma: X = x0 + sigma W, exactly, on the same
    # increments, whatever ell1 and ell2 are when ell2 is clamped.
    sigma = 0.7
    nets = {
        "drift": affine_mlp(0.0, 0.0),
        "diffusion": affine_mlp(0.0, math.log(math.expm1(sigma - SIGMA_FLOOR))),
        "ell1": affine_mlp(-0.5, 1.0),
        "ell2": affine_mlp(0.3, 0.8),
    }
    dw = program_increments(200, 4242, 0, 3)
    x, alive = simulate(Model(nets, 2.5, True), dw)
    s = float(softplus(np.array([math.log(math.expm1(sigma - SIGMA_FLOOR))]))[0]) + SIGMA_FLOOR
    closed = np.cumsum(np.vstack((np.full((1, 3), 2.5), s * dw)), axis=0)
    if not (alive.all() and np.array_equal(x, closed)):
        problems.append("reference Euler: zero drift and constant sigma is not x0 + sigma W")
    if abs(s - sigma) > 1e-12:
        problems.append(f"reference softplus: sigma {s} != {sigma}")

    # Hurst recovery on exact fBm.
    rng = np.random.default_rng(20240607)
    for h in (0.2, 0.5, 0.8):
        estimates = [hurst(fbm(h, 1024, rng)) for _ in range(40)]
        med = float(np.median(estimates))
        if abs(med - h) > 0.05:
            problems.append(f"reference Hurst: median {med:.4f} on exact fBm with H={h}")
    return problems
