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

from . import integrator
from .errors import MetricError
from .integrator import NansdeModel, _sigma, euler_x_step, na_noise, simulate_ensemble
from .neural import stacked_forward, stacked_layers
from .noise import Path
from .rng import DOMAIN_EVAL, EVAL_ENSEMBLE_STREAM, NoiseSeed, eval_generator
from .training import LogReturnSeries, log_returns

DEFAULT_BINS = 50
DEFAULT_PREDICTIONS = 64  # R^2 simulations per test index
DEFAULT_SPLIT = 0.8
BIN_SPAN_STDS = 5.0
ILL_CONDITIONED = 10.0  # row sum of squares / window variance that calls for two passes
ROW_BLOCK = 1 << 16  # entries of the row blocks that TV bins and the ACF scores at a time


def default_lag_count(n_returns: int) -> int:
    """S = min(100, T/4), at least 1."""
    return max(1, min(100, n_returns // 4))


# ---------------------------------------------------------------------------
# Hurst index
# ---------------------------------------------------------------------------


def estimate_hurst(path: Path) -> float:
    """Aggregated-variance Hurst estimate of a path.

    Computes the mean squared m-lag difference of the (level) path over
    dyadic lags m = 1, 2, 4, ..., n/8 and fits half the log-log slope:
    Var(X_{t+m dt} - X_t) ~ m^{2H}.  The second moment is not centered, so
    a deterministic trend reads as strong persistence and the estimate can
    exceed 1 rather than being clipped.
    """
    return float(_hurst_rows(path.values[None, :])[0])


def _hurst_rows(levels: np.ndarray) -> np.ndarray:
    """:func:`estimate_hurst` of every row of an (m, n + 1) matrix of levels.

    Each lag's squared differences fill one reused scratch of the levels'
    shape; a row's moments and fit are bit-for-bit those of the row on its own.
    """
    n = levels.shape[1] - 1
    if n < 64:
        raise MetricError(f"need at least 64 steps for a Hurst estimate, got {n}")
    lags = []
    lag = 1
    while lag <= n // 8:
        lags.append(lag)
        lag *= 2
    moments, scratch = np.empty((levels.shape[0], len(lags))), np.empty_like(levels)
    for j, lag in enumerate(lags):
        diff = np.subtract(levels[:, lag:], levels[:, :-lag], out=scratch[:, lag:])
        diff *= diff
        moments[:, j] = np.mean(diff, axis=1)
    if np.any(moments <= 0.0):
        raise MetricError("path shows no variation; Hurst undefined")
    log_m = np.log(np.array(lags, dtype=float))
    log_v = np.log(moments)
    xc = log_m - log_m.mean()
    slope = (xc * (log_v - log_v.mean(axis=1, keepdims=True))).sum(axis=1) / (xc * xc).sum()
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
    def from_samples(cls, samples, k: int = DEFAULT_BINS) -> "BinSpec":
        """Bins spanning mean +/- ``BIN_SPAN_STDS`` standard deviations of ``samples``."""
        samples = np.asarray(samples, dtype=float)
        center = float(samples.mean())
        spread = float(samples.std())
        if spread == 0.0:
            spread = 1.0 / BIN_SPAN_STDS  # degenerate sample: fall back to unit width
        return cls(center - BIN_SPAN_STDS * spread, center + BIN_SPAN_STDS * spread, k)

    @property
    def n_bins(self) -> int:
        """Total bin count including the two overflow bins."""
        return self.k + 2

    def distribution(self, *samples) -> np.ndarray:
        """Empirical probabilities of all entries of the ``samples`` arrays, pooled, over
        the k + 2 bins, binned a row block at a time (counts add up exactly)."""
        edges = np.linspace(self.lo, self.hi, self.k + 1)
        counts = sum(np.bincount(np.digitize(rows, edges).ravel(), minlength=self.k + 2)
                     for a in samples for rows in _row_blocks(a))  # 0 = under-, k+1 = overflow
        if np.sum(counts) == 0:
            raise ValueError("cannot bin an empty sample")
        return counts / counts.sum()


def _row_blocks(a) -> list:
    """Row views of ``a`` (a vector is one row): ``ROW_BLOCK`` entries at most, or one row."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    step = max(1, ROW_BLOCK // max(1, a.shape[1]))
    return [a[i : i + step] for i in range(0, len(a), step)]


def tv_distance(observed: LogReturnSeries, generated, bins: BinSpec) -> float:
    """Total variation between binned observed and pooled generated returns.

    Every row of every generated series, of any length, is pooled into one
    sample, binned a row block at a time with no pooled copy.
    """
    p = bins.distribution(observed.r)
    p_hat = bins.distribution(*(g.r for g in generated))
    return 0.5 * float(np.abs(p - p_hat).sum())


# ---------------------------------------------------------------------------
# Autocorrelation structure
# ---------------------------------------------------------------------------


def _leading_run(a: np.ndarray) -> np.ndarray:
    """Per row, how many leading entries equal the row's first entry."""
    differs = a != a[:, :1]
    return np.where(differs.any(axis=1), differs.argmax(axis=1), a.shape[1])


def _abs_corr_profiles(series, s: int) -> np.ndarray:
    """Corr(|r_t|, |r_{t+tau}|) for tau = 1..s of every row of ``series``,
    arrays of one length n (a vector is one row), as an (rows, s) array.
    Rows are scored a block at a time, each block's |r| a copy, so
    ``series`` is left as it was; a row's profile has its bits in any block.
    """
    blocks = [rows for a in series for rows in _row_blocks(a)]
    n = blocks[0].shape[1]
    if n <= s:
        raise MetricError(f"series of length {n} too short for {s} lags")
    # Both windows at lag tau hold n - tau values; one is constant exactly
    # when the leading (x) or trailing (y) run of equal values covers it.
    longest_run = max(int(np.maximum(_leading_run(a), _leading_run(a[:, ::-1])).max())
                      for a in map(np.abs, blocks))
    first_bad_lag = max(1, n - longest_run)
    if first_bad_lag <= s:
        raise MetricError(f"zero variance at lag {first_bad_lag}; correlation undefined")
    return np.concatenate([_block_profiles(np.abs(rows), s) for rows in blocks])


def _block_profiles(a: np.ndarray, s: int) -> np.ndarray:
    """The profiles of an (m, n) block of |r| with no constant window, which is
    overwritten.  Every lag of every row is scored at once: with x = a[:n-tau]
    and y = a[tau:], the sums of x, x^2, y and y^2 are row totals minus running
    sums over the last and first s columns; only sum(x y) takes one pass per lag.
    Rows are centred on their full mean first, which leaves the correlations
    unchanged and keeps these one-pass sums well conditioned; the (row, lag)
    pairs where they are not are summed again in two passes."""
    m, n = a.shape
    a -= a.mean(axis=1, keepdims=True)

    head = a[:, :s]
    tail = a[:, n - s:][:, ::-1]
    total = a.sum(axis=1)[:, None]
    total_sq = np.einsum("ij,ij->i", a, a)[:, None]
    sx = total - np.cumsum(tail, axis=1)
    sy = total - np.cumsum(head, axis=1)
    sxx = total_sq - np.cumsum(tail * tail, axis=1)
    syy = total_sq - np.cumsum(head * head, axis=1)
    sxy = np.empty((m, s))
    for tau in range(1, s + 1):
        sxy[:, tau - 1] = np.einsum("ij,ij->i", a[:, :-tau], a[:, tau:])
    length = np.arange(n - 1, n - s - 1, -1, dtype=float)
    cov = sxy - sx * sy / length
    var_x = sxx - sx * sx / length
    var_y = syy - sy * sy / length

    # Subtracting running sums from row totals loses about
    # log10(total_sq / var) digits of a window variance: short windows, and
    # windows that leave out an outlier or sit far from the row mean.  Those
    # (row, lag) pairs are summed again around their window means.
    redo = total_sq > ILL_CONDITIONED * np.minimum(var_x, var_y)
    for k in np.flatnonzero(redo.any(axis=0)):
        bad, tau, n_win = redo[:, k], k + 1, length[k]
        x = a[bad, :-tau] - (sx[bad, k] / n_win)[:, None]
        y = a[bad, tau:] - (sy[bad, k] / n_win)[:, None]
        cov[bad, k] = np.einsum("ij,ij->i", x, y)
        var_x[bad, k] = np.einsum("ij,ij->i", x, x)
        var_y[bad, k] = np.einsum("ij,ij->i", y, y)
    denom = np.sqrt(var_x * var_y)
    if not np.all(denom > 0.0):
        raise MetricError("window variance lost to rounding; correlation undefined")
    return cov / denom


def acf_weights(s: int) -> np.ndarray:
    """Linearly increasing lag weights w_tau = 2 tau / (S + 1), unit mean."""
    return 2.0 * np.arange(1, s + 1) / (s + 1)


def acf_scores(observed: LogReturnSeries, generated, s: int) -> tuple[float, float]:
    """L2 gaps between observed and mean-generated |return| correlations.

    Returns the plain score ||C(obs) - mean_i C(gen_i)||_2 and the variant
    with each lag scaled by ``acf_weights`` before taking the norm.  The
    mean runs over the rows of the generated series, which must share one
    length.  Rows are scored a row block at a time; no series is written.
    """
    generated = list(generated)
    if not generated:
        raise ValueError("need at least one generated series")
    if s < 1:
        raise ValueError(f"lag count must be >= 1, got {s}")
    lengths = sorted({len(g) for g in generated})
    if len(lengths) > 1:
        raise ValueError(f"generated series must share one length, got lengths {lengths}")
    obs = _abs_corr_profiles([observed.r], s)
    gen = _abs_corr_profiles([g.r for g in generated], s)
    diff = obs.sum(axis=0) / obs.shape[0] - gen.sum(axis=0) / gen.shape[0]
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
    observed: Path, model: NansdeModel, m_pred: int = DEFAULT_PREDICTIONS, seed: int = 0
) -> tuple[float, int]:
    """R^2 of one-step-ahead return predictions over the final test block
    (the last ``1 - DEFAULT_SPLIT`` of the returns), and the number of
    predictions it dropped.

    For every test index t the predictor restarts the generator at the
    observed level X_t and averages log(X-hat_{t+1} / X_t) over ``m_pred``
    simulations.  The latent memory K_t is not observable from X alone, so
    each simulation steps with its own NA-noise increment dZ_t, built along
    the full grid from fresh noise by the Euler sweep's ``na_noise``.  A
    prediction is dropped from its index's mean, and counted, when X-hat is
    non-positive (it has no log-return), when it is not finite or past the
    divergence guard (the sweep would mark its path dead), or when its
    stream's K crossed the guard by row t (dZ_t reads K_t).  Compared
    against the test-mean baseline:
    R^2 = 1 - sum (r_t - r~_t)^2 / sum (r_t - rbar)^2.
    """
    if m_pred < 1:
        raise ValueError(f"m_pred must be >= 1, got {m_pred}")
    r = log_returns(observed).r
    idx = np.arange(int(math.floor(DEFAULT_SPLIT * r.size)), r.size)

    grid, dt = observed.grid, observed.grid.dt
    x_t = observed.values[idx]
    layers = stacked_layers((model.drift_net, model.diffusion_net), idx.size)
    heads = stacked_forward(layers, x_t[:, None])
    b, sigma = heads[0], _sigma(heads[1])  # (n_test, 1) each

    # One column of increments per prediction stream.
    dw = np.empty((grid.n_steps, m_pred))
    for j in range(m_pred):
        dw[:, j] = eval_generator(seed, tag=j).standard_normal(grid.n_steps) * np.sqrt(dt)
    dz, k_bad = na_noise(model, grid, dw)
    x_hat = np.empty((idx.size, m_pred))
    euler_x_step(x_t[:, None], b, sigma, dz[idx], dt, x_hat, np.empty_like(x_hat))
    valid = (0.0 < x_hat) & (x_hat <= integrator.DIVERGENCE_GUARD)
    valid &= (k_bad < 0) | (idx[:, None] < k_bad)
    counts = valid.sum(axis=1)
    if np.any(counts == 0):
        raise MetricError(f"no usable one-step prediction at test index {idx[counts == 0][0]}")
    ratio = np.where(valid, x_hat / x_t[:, None], 1.0)
    r_tilde = (np.log(ratio) * valid).sum(axis=1) / counts

    return r2_from_predictions(r[idx], r_tilde), int(valid.size - counts.sum())


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    """One model's row of the evaluation table."""

    hurst_mean: float
    hurst_std: float
    tv: float
    acf: float
    weighted_acf: float
    r2: float
    n_paths: int
    n_lags: int
    n_bins: int

    def __post_init__(self):
        if not -1e-12 <= self.tv <= 1.0 + 1e-12:
            raise ValueError(f"tv must lie in [0, 1], got {self.tv}")
        if self.acf < 0.0 or self.weighted_acf < 0.0:
            raise ValueError("ACF scores are norms and cannot be negative")
        if self.hurst_std < 0.0:
            raise ValueError("hurst_std cannot be negative")


def compute_report(
    observed: Path,
    model: NansdeModel,
    m_eval: int,
    seed: int,
    n_bins: int = DEFAULT_BINS,
    n_lags: int = 0,
    m_pred: int = DEFAULT_PREDICTIONS,
) -> tuple[MetricReport, dict]:
    """Simulate an evaluation ensemble and compute all metrics.

    The ensemble draws ``DOMAIN_EVAL`` streams, held out from training noise
    and from the R^2 resampling.  Diverged paths are left out of every
    metric and counted; if none survives the report is undefined.
    ``n_lags = 0`` scores ``default_lag_count`` lags of the ACF.  Returns
    the report plus a detail mapping (ensemble Hurst percentiles, usable and
    diverged path counts, the observed path's own Hurst estimate, and the
    one-step predictions R^2 dropped: non-positive, past the divergence
    guard, or read off a K that crossed it).
    """
    obs_returns = log_returns(observed)
    tape = simulate_ensemble(model, m_eval, NoiseSeed(seed, EVAL_ENSEMBLE_STREAM, DOMAIN_EVAL))
    # One C-ordered row per surviving path, as the Hurst pass needs; the
    # tape's own matrix goes, so the copy costs no peak memory.
    levels = np.ascontiguousarray(tape.x.T[tape.alive])
    del tape
    if levels.shape[0] == 0:
        raise MetricError(f"all {m_eval} evaluation paths diverged")

    hurst = _hurst_rows(levels)
    positive = (levels > 0.0).all(axis=1)
    if not positive.any():
        raise MetricError("no generated path stayed positive; return metrics undefined")
    if not positive.all():
        levels = levels[positive]
    # The returns fill a matrix of the levels' shape: the space Hurst's scratch
    # freed, which a later (n + 1, m) array can reuse in turn.
    gen_r = np.divide(levels[:, 1:], levels[:, :-1], out=np.empty_like(levels)[:, 1:])
    del levels  # not read again
    gen_returns = LogReturnSeries(np.log(gen_r, out=gen_r))

    bins = BinSpec.from_samples(obs_returns.r, k=n_bins)
    tv = tv_distance(obs_returns, [gen_returns], bins)
    s = n_lags or default_lag_count(len(obs_returns))
    acf, weighted_acf = acf_scores(obs_returns, [gen_returns], s)
    del gen_r, gen_returns  # R^2 reads no ensemble path
    r2, r2_dropped = r2_score(observed, model, m_pred=m_pred, seed=seed)

    report = MetricReport(
        hurst_mean=float(hurst.mean()),
        hurst_std=float(hurst.std(ddof=1)) if hurst.size > 1 else 0.0,
        tv=tv,
        acf=acf,
        weighted_acf=weighted_acf,
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
        "n_return_paths": int(positive.sum()),
        "n_diverged_paths": m_eval - hurst.size,
        "r2_dropped_predictions": r2_dropped,
    }
    return report, details
