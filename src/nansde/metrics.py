"""Evaluation suite: Hurst index, marginal TV distance, ACF scores, R^2.

These are the four headline measures used to compare a trained generator
against the data it was fitted to: memory (Hurst), marginal distribution of
log-returns (total variation over fixed bins), dependence structure of
absolute returns (plain and lag-weighted ACF discrepancy), and one-step
predictive power (R^2 on the held-out final 20%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError
from .integrator import NansdeModel, coefficients, kernel_values, simulate_ensemble
from .noise import Path
from .rng import DOMAIN_EVAL, EVAL_ENSEMBLE_STREAM, NoiseSeed, eval_generator
from .training import LogReturnSeries, log_returns

DEFAULT_BINS = 50
DEFAULT_SPLIT = 0.8
BIN_SPAN_STDS = 5.0


def default_lag_count(n_returns: int) -> int:
    """S = min(100, T/4), at least 1."""
    return max(1, min(100, n_returns // 4))


# ---------------------------------------------------------------------------
# Hurst index
# ---------------------------------------------------------------------------


def estimate_hurst(path: Path, on_returns: bool = False) -> float:
    """Aggregated-variance Hurst estimate of a path.

    Computes the mean squared m-lag difference of the (level) path over
    dyadic lags m = 1, 2, 4, ..., n/8 and fits half the log-log slope:
    Var(X_{t+m dt} - X_t) ~ m^{2H}.  The second moment is not centered, so
    a deterministic trend reads as strong persistence and the estimate can
    exceed 1 rather than being clipped.

    With ``on_returns`` the path is first mapped through log, i.e. the
    scaling of aggregated log-returns is analyzed instead of raw levels.
    """
    values = path.values
    if on_returns:
        if np.any(values <= 0.0):
            raise MetricError("log-return Hurst needs a strictly positive path")
        values = np.log(values)
    n = values.size - 1
    if n < 64:
        raise MetricError(f"need at least 64 steps for a Hurst estimate, got {n}")
    lags = []
    lag = 1
    while lag <= n // 8:
        lags.append(lag)
        lag *= 2
    moments = []
    for lag in lags:
        diff = values[lag:] - values[:-lag]
        second = float(np.mean(diff * diff))
        if second <= 0.0:
            raise MetricError("path shows no variation; Hurst undefined")
        moments.append(second)
    log_m = np.log(np.array(lags, dtype=float))
    log_v = np.log(np.array(moments))
    xc = log_m - log_m.mean()
    slope = float((xc * (log_v - log_v.mean())).sum() / (xc * xc).sum())
    return slope / 2.0


# ---------------------------------------------------------------------------
# Marginal distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinSpec:
    """K equal-width bins on [lo, hi] plus one overflow bin on each side."""

    lo: float
    hi: float
    k: int

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"need finite lo < hi, got [{self.lo}, {self.hi}]")
        if self.k < 2:
            raise ValueError(f"need at least 2 bins, got {self.k}")

    @classmethod
    def from_samples(cls, samples, k: int = DEFAULT_BINS, span: float = BIN_SPAN_STDS) -> "BinSpec":
        """Bins spanning mean +/- span standard deviations of ``samples``."""
        samples = np.asarray(samples, dtype=float)
        center = float(samples.mean())
        spread = float(samples.std())
        if spread == 0.0:
            spread = 1.0 / span  # degenerate sample: fall back to unit width
        return cls(center - span * spread, center + span * spread, k)

    @property
    def n_bins(self) -> int:
        """Total bin count including the two overflow bins."""
        return self.k + 2

    def distribution(self, samples) -> np.ndarray:
        """Empirical probabilities over the k + 2 bins."""
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise ValueError("cannot bin an empty sample")
        edges = np.linspace(self.lo, self.hi, self.k + 1)
        idx = np.digitize(samples, edges)  # 0 = underflow, k+1 = overflow
        counts = np.bincount(idx, minlength=self.k + 2)
        return counts / samples.size


def tv_distance(observed: LogReturnSeries, generated, bins: BinSpec) -> float:
    """Total variation between binned observed and pooled generated returns."""
    generated = list(generated)
    if not generated:
        raise ValueError("need at least one generated series")
    p = bins.distribution(observed.r)
    pooled = np.concatenate([g.r for g in generated])
    p_hat = bins.distribution(pooled)
    return 0.5 * float(np.abs(p - p_hat).sum())


# ---------------------------------------------------------------------------
# Autocorrelation structure
# ---------------------------------------------------------------------------


def _abs_corr_profile(r: np.ndarray, s: int) -> np.ndarray:
    """Corr(|r_t|, |r_{t+tau}|) for tau = 1..s."""
    a = np.abs(r)
    if a.size <= s:
        raise MetricError(f"series of length {a.size} too short for {s} lags")
    out = np.empty(s)
    for tau in range(1, s + 1):
        x = a[:-tau]
        y = a[tau:]
        xc = x - x.mean()
        yc = y - y.mean()
        denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
        if denom == 0.0:
            raise MetricError(f"zero variance at lag {tau}; correlation undefined")
        out[tau - 1] = float((xc * yc).sum()) / denom
    return out


def acf_weights(s: int) -> np.ndarray:
    """Linearly increasing lag weights w_tau = 2 tau / (S + 1), unit mean."""
    return 2.0 * np.arange(1, s + 1) / (s + 1)


def acf_scores(observed: LogReturnSeries, generated, s: int) -> tuple[float, float]:
    """L2 gaps between observed and mean-generated |return| correlations.

    Returns the plain score ||C(obs) - mean_i C(gen_i)||_2 and the variant
    with each lag scaled by ``acf_weights`` before taking the norm.
    """
    generated = list(generated)
    if not generated:
        raise ValueError("need at least one generated series")
    if s < 1:
        raise ValueError(f"lag count must be >= 1, got {s}")
    profile = _abs_corr_profile(observed.r, s)
    gen_mean = np.mean([_abs_corr_profile(g.r, s) for g in generated], axis=0)
    diff = profile - gen_mean
    plain = float(np.sqrt((diff * diff).sum()))
    weighted_diff = acf_weights(s) * diff
    weighted = float(np.sqrt((weighted_diff * weighted_diff).sum()))
    return plain, weighted


# ---------------------------------------------------------------------------
# One-step predictive R^2
# ---------------------------------------------------------------------------


def r2_from_predictions(r_test, r_pred) -> float:
    """R^2 of one-step predictions against the test-mean baseline.

    R^2 = 1 - sum (r_t - r~_t)^2 / sum (r_t - rbar)^2; equals 1 for a
    perfect predictor, 0 for the constant test-mean predictor, and goes
    negative when the predictor is worse than the mean.
    """
    r_test = np.asarray(r_test, dtype=float)
    r_pred = np.asarray(r_pred, dtype=float)
    if r_test.ndim != 1 or r_test.shape != r_pred.shape or r_test.size == 0:
        raise ValueError("predictions and targets must be equal-length 1-d arrays")
    centered = r_test - r_test.mean()
    denom = float((centered * centered).sum())
    if denom == 0.0:
        raise MetricError("constant test returns; R^2 undefined")
    resid = r_test - r_pred
    return 1.0 - float((resid * resid).sum()) / denom


def r2_score(
    observed: Path,
    model: NansdeModel,
    split: float = DEFAULT_SPLIT,
    m_pred: int = 64,
    seed: int = 0,
) -> float:
    """R^2 of one-step-ahead return predictions over the final test block.

    For every test index t the predictor restarts the generator at the
    observed level X_t and averages log(X-hat_{t+1} / X_t) over ``m_pred``
    simulations.  The latent memory K_t is not observable from X alone, so
    each simulation carries its own K reconstructed along the full grid
    with fresh noise.  Compared against the test-mean baseline:
    R^2 = 1 - sum (r_t - r~_t)^2 / sum (r_t - rbar)^2.
    """
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must lie in (0, 1), got {split}")
    if m_pred < 1:
        raise ValueError(f"m_pred must be >= 1, got {m_pred}")
    r = log_returns(observed).r
    n_ret = r.size
    start = int(math.floor(split * n_ret))
    if start >= n_ret:
        raise MetricError("test segment is empty")
    idx = np.arange(start, n_ret)

    grid = observed.grid
    dt = grid.dt
    times = grid.step_times()
    ell1, ell2 = kernel_values(model, times)
    x_t = observed.values[idx]
    b, sigma, _, _ = coefficients(model, x_t)

    dw = np.empty((m_pred, grid.n_steps))
    for j in range(m_pred):
        dw[j] = eval_generator(seed, tag=j).standard_normal(grid.n_steps) * np.sqrt(dt)
    k = np.concatenate(
        (np.zeros((m_pred, 1)), np.cumsum(ell2[None, :] * dw, axis=1)), axis=1
    )

    x_hat = (
        x_t[None, :]
        + (b[None, :] - ell1[idx][None, :] * sigma[None, :] * k[:, idx]) * dt
        + sigma[None, :] * dw[:, idx]
    )
    valid = x_hat > 0.0
    counts = valid.sum(axis=0)
    if np.any(counts == 0):
        raise MetricError("all one-step predictions non-positive at some test index")
    ratio = np.where(valid, x_hat / x_t[None, :], 1.0)
    r_tilde = (np.log(ratio) * valid).sum(axis=0) / counts

    return r2_from_predictions(r[idx], r_tilde)


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    """One model's row of the evaluation table."""

    hurst_mean: float
    hurst_std: float
    tv: float
    acf_score: float
    weighted_acf_score: float
    r2: float
    n_paths: int
    n_lags: int
    n_bins: int

    def __post_init__(self):
        if not -1e-12 <= self.tv <= 1.0 + 1e-12:
            raise ValueError(f"tv must lie in [0, 1], got {self.tv}")
        if self.acf_score < 0.0 or self.weighted_acf_score < 0.0:
            raise ValueError("ACF scores are norms and cannot be negative")
        if self.hurst_std < 0.0:
            raise ValueError("hurst_std cannot be negative")


def compute_report(
    observed: Path,
    model: NansdeModel,
    m_eval: int,
    seed: int,
    n_bins: int = DEFAULT_BINS,
    n_lags: int | None = None,
    split: float = DEFAULT_SPLIT,
    m_pred: int = 64,
) -> tuple[MetricReport, dict]:
    """Simulate an evaluation ensemble and compute all metrics.

    The ensemble draws ``DOMAIN_EVAL`` streams, held out from training noise
    and from the R^2 resampling.  Diverged paths are left out of every
    metric and counted; if none survives the report is undefined.  Returns
    the report plus a detail mapping (ensemble Hurst percentiles, usable and
    diverged path counts, the observed path's own Hurst estimate).
    """
    obs_returns = log_returns(observed)
    ensemble = simulate_ensemble(
        model, m_eval, NoiseSeed(seed, EVAL_ENSEMBLE_STREAM, DOMAIN_EVAL)
    )
    paths = [
        Path(ensemble.grid, ensemble.values_matrix()[:, j])
        for j in np.flatnonzero(ensemble.alive)
    ]
    if not paths:
        raise MetricError(f"all {m_eval} evaluation paths diverged")

    hurst = np.array([estimate_hurst(p) for p in paths])
    gen_returns = []
    for p in paths:
        if np.all(p.values > 0.0):
            gen_returns.append(log_returns(p))
    if not gen_returns:
        raise MetricError("no generated path stayed positive; return metrics undefined")

    bins = BinSpec.from_samples(obs_returns.r, k=n_bins)
    tv = tv_distance(obs_returns, gen_returns, bins)
    s = default_lag_count(len(obs_returns)) if n_lags is None else n_lags
    acf, weighted_acf = acf_scores(obs_returns, gen_returns, s)
    r2 = r2_score(observed, model, split=split, m_pred=m_pred, seed=seed)

    report = MetricReport(
        hurst_mean=float(hurst.mean()),
        hurst_std=float(hurst.std(ddof=1)) if hurst.size > 1 else 0.0,
        tv=tv,
        acf_score=acf,
        weighted_acf_score=weighted_acf,
        r2=r2,
        n_paths=m_eval,
        n_lags=s,
        n_bins=bins.n_bins,
    )
    details = {
        "hurst_p5": float(np.percentile(hurst, 5)),
        "hurst_p25": float(np.percentile(hurst, 25)),
        "hurst_median": float(np.percentile(hurst, 50)),
        "hurst_p75": float(np.percentile(hurst, 75)),
        "hurst_p95": float(np.percentile(hurst, 95)),
        "hurst_observed": estimate_hurst(observed),
        "n_return_paths": len(gen_returns),
        "n_diverged_paths": m_eval - len(paths),
    }
    return report, details
