"""Driving-noise generators on a uniform time grid.

Three noise families, all reproducible from a :class:`~nansde.rng.NoiseSeed`:

* Brownian increments (``brownian_increments``),
* fractional Brownian motion, exact in law via circulant embedding of the
  increment covariance (``fbm_path``),
* the NA-noise ``Z`` with its auxiliary memory process ``K``, the Markov
  pair ``dZ = dW - ell1(t) K dt``, ``dK = ell2(t) dW``.  On a grid K is
  :func:`memory_integral` and dZ, derived from dW, is :func:`na_increments`;
  the generator's Euler sweep (``nansde.integrator``) and its R^2 predictor
  drive X with them, its backward rebuilds them from dW block by block, and
  ``arma_noise_path`` is the closed-form case ``ell1 = exp(-p t)``, ``ell2 = ell(t)``.

The closed-form kernel is

    ell(u) = q e^{p u} (1 - 2q(p-q) / ((2p-q)^2 e^{2(p-q)u} - q^2))

and the full two-argument kernel factors as ell(s, u) = e^{-p s} ell(u).
ell is evaluated in a rearranged form that never exponentiates a large
positive argument inside the bracket, so it stays accurate up to the point
where the overall magnitude itself leaves double range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, KernelError
from .grid import TimeGrid
from .rng import NoiseSeed, noise_generator

# Relative slack for circulant eigenvalues: tiny negatives are roundoff and
# are clipped; anything more negative means the embedding genuinely failed.
_EMBED_TOL = 1e-8


@dataclass(frozen=True)
class Path:
    """One scalar path sampled on a uniform grid (``n_steps + 1`` values)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"expected {self.grid.n_points} values for {self.grid.n_steps} steps, "
                f"got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("path values must be finite")


def brownian_increments(grid: TimeGrid, seed: NoiseSeed) -> np.ndarray:
    """I.i.d. Gaussian(0, dt) increments of a standard Brownian motion.

    Returns an array of length ``grid.n_steps``.  The same ``(grid, seed)``
    always yields the same bits.
    """
    gen = noise_generator(seed)
    return gen.standard_normal(grid.n_steps) * np.sqrt(grid.dt)


def memory_integral(ell2: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """K on the grid: K_0 = 0, K_{k+1} = K_k + ell2_k dW_k, one column per path of dw."""
    k = np.empty((dw.shape[0] + 1, dw.shape[1]))
    k[0] = 0.0
    np.multiply(ell2[:, None], dw, out=k[1:])
    np.add.accumulate(k, axis=0, out=k)
    return k


def na_increments(dw: np.ndarray, ell1: np.ndarray, k: np.ndarray, dt: float) -> np.ndarray:
    """The NA-noise increments dZ_k = dW_k - ell1_k K_k dt, written over K's first n rows.

    ``k`` holds K at the steps of the (n, m) ``dw`` in its first n rows: the
    output of :func:`memory_integral` (its last row is left as it was) or any
    block of its rows.  The returned view of it holds dZ; where K is 0, dZ is dW.
    """
    dz = k[: dw.shape[0]]
    np.multiply(ell1[:, None], dz, out=dz)
    dz *= dt
    np.subtract(dw, dz, out=dz)
    return dz


# ---------------------------------------------------------------------------
# Fractional Brownian motion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FbmConfig:
    """Fractional Brownian motion with Hurst index in (0, 1) on a grid."""

    hurst: float
    grid: TimeGrid

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")


def _fgn_autocov(hurst: float, n: int) -> np.ndarray:
    """Autocovariance of unit-spacing fractional Gaussian noise at lags 0..n."""
    k = np.arange(n + 1, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


def _fgn_circulant(hurst: float, n: int, gen: np.random.Generator) -> np.ndarray:
    """Exact fractional Gaussian noise via circulant embedding.

    Embeds the n-point covariance into a 2n circulant, whose eigenvalues are
    the FFT of the wrapped autocovariance.  A Hermitian-symmetric complex
    Gaussian vector scaled by the eigenvalue square roots transforms back to
    a sample with exactly the target covariance.  A materially negative
    eigenvalue means the embedding failed: ``GenerationError``.
    """
    rho = _fgn_autocov(hurst, n)
    circ = np.concatenate((rho, rho[-2:0:-1]))  # length 2n, symmetric
    lam = np.fft.fft(circ).real
    lam_max = lam.max()
    if lam.min() < -_EMBED_TOL * lam_max:
        raise GenerationError(
            f"no valid circulant embedding of fBm increments for hurst={hurst}, n={n} "
            f"(min eigenvalue {lam.min():.3g} of max {lam_max:.3g})"
        )
    lam = np.clip(lam, 0.0, None)

    # Draw order is part of the reproducibility contract: one normal for the
    # zero-frequency mode, one for the Nyquist mode, then the real and
    # imaginary blocks of the conjugate-symmetric interior.
    z = gen.standard_normal(2 * n)
    coef = np.empty(2 * n, dtype=complex)
    coef[0] = z[0]
    coef[n] = z[1]
    interior = (z[2 : n + 1] + 1j * z[n + 1 :]) / np.sqrt(2.0)
    coef[1:n] = interior
    coef[n + 1 :] = np.conj(interior[::-1])

    spectrum = np.sqrt(lam) * coef
    return np.fft.fft(spectrum).real[:n] / np.sqrt(2 * n)


def fbm_increments(cfg: FbmConfig, seed: NoiseSeed) -> np.ndarray:
    """Increments of fractional Brownian motion over each grid step."""
    sample = _fgn_circulant(cfg.hurst, cfg.grid.n_steps, noise_generator(seed))
    return sample * cfg.grid.dt**cfg.hurst


def fbm_path(cfg: FbmConfig, seed: NoiseSeed) -> Path:
    """Fractional Brownian motion path with B(0) = 0.

    Exact in law: Cov(B_s, B_t) = (s^{2H} + t^{2H} - |t-s|^{2H}) / 2 on the
    grid nodes.
    """
    inc = fbm_increments(cfg, seed)
    values = np.concatenate(([0.0], np.cumsum(inc)))
    return Path(cfg.grid, values)


# ---------------------------------------------------------------------------
# Closed-form ARMA-type noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArmaKernelParams:
    """Parameters of the closed-form noise kernel; requires p > q and p > 0."""

    p: float
    q: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and np.isfinite(self.q)):
            raise ValueError("kernel parameters must be finite")
        if self.p <= 0.0:
            raise ValueError(f"p must be positive, got {self.p}")
        if self.p <= self.q:
            raise ValueError(f"p must exceed q, got p={self.p}, q={self.q}")


def _kernel_bracket(u: np.ndarray, params: ArmaKernelParams) -> np.ndarray:
    """The bracketed factor of ell(u), evaluated without large exponentials.

    Multiplying the textbook form's numerator and denominator by
    e^{-2(p-q)u} gives

        1 - 2q(p-q) e^{-2(p-q)u} / ((2p-q)^2 - q^2 e^{-2(p-q)u})

    whose denominator is bounded below by 4p(p-q) > 0 for all u >= 0.
    """
    p, q = params.p, params.q
    decay = np.exp(-2.0 * (p - q) * u)
    denom = (2.0 * p - q) ** 2 - q**2 * decay
    if np.any(denom <= 0.0) or not np.all(np.isfinite(denom)):
        raise KernelError(f"kernel denominator invalid for p={p}, q={q}")
    return 1.0 - 2.0 * q * (p - q) * decay / denom


def arma_ell(u, params: ArmaKernelParams):
    """The closed-form kernel factor ell(u) for u >= 0.

    Accepts a scalar or array; returns the same shape.  The value grows like
    q e^{p u}, so sufficiently large u overflows double precision; that is
    reported as a kernel error rather than returned as inf.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0):
        raise ValueError("u must be non-negative")
    if params.q == 0.0:
        # The whole expression carries a factor q; short-circuit so that the
        # e^{p u} growth factor never multiplies 0 into 0*inf.
        out = np.zeros_like(u_arr)
        return float(out) if u_arr.ndim == 0 else out
    with np.errstate(over="ignore"):  # overflow is detected and reported below
        out = params.q * np.exp(params.p * u_arr) * _kernel_bracket(u_arr, params)
    if not np.all(np.isfinite(out)):
        raise KernelError(
            f"ell(u) overflows double precision for p={params.p}, q={params.q}, "
            f"max u={u_arr.max()}"
        )
    return float(out) if u_arr.ndim == 0 else out


def arma_noise_path(
    grid: TimeGrid, params: ArmaKernelParams, seed: NoiseSeed
) -> tuple[Path, Path]:
    """Euler path of the Markov pair driving the closed-form ARMA-type noise.

    Discretizes dZ = dW - e^{-p t} K dt, dK = ell(t) dW from Z(0)=K(0)=0
    with shared increments, stepping with the left-endpoint values of t:
    :func:`na_increments` with ell1 = e^{-p t} and ell2 = ell.  Returns the
    (Z, K) paths.
    """
    dw = brownian_increments(grid, seed)[:, None]
    t = grid.step_times()
    k = memory_integral(np.asarray(arma_ell(t, params), dtype=float), dw)
    k_path = Path(grid, k[:, 0].copy())  # dZ overwrites K's first n rows
    dz = na_increments(dw, np.exp(-params.p * t), k, grid.dt)
    z = np.concatenate(([0.0], np.cumsum(dz[:, 0])))
    return Path(grid, z), k_path
