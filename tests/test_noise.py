"""Noise sources: time grids, seeded streams, Brownian and fractional
Brownian paths, the closed-form ARMA kernel and its Markov noise pair."""

import math

import numpy as np
import pytest

import nansde as nd
from nansde.errors import KernelError
from nansde.rng import DOMAIN_NOISE, noise_generator, stream_generator

# ---------------------------------------------------------------------------
# Time grid
# ---------------------------------------------------------------------------


def test_grid_points_follow_k_dt():
    grid = nd.TimeGrid(n_steps=5, dt=0.25)
    assert grid.n_points == 6
    expected = 0.25 * np.arange(6)
    assert np.array_equal(grid.times(), expected)
    assert np.array_equal(grid.step_times(), expected[:-1])
    assert grid.times()[-1] == 5 * 0.25


def test_grid_rejects_degenerate_construction():
    with pytest.raises(ValueError):
        nd.TimeGrid(n_steps=5, dt=0.0)
    with pytest.raises(ValueError):
        nd.TimeGrid(n_steps=5, dt=-0.1)
    with pytest.raises(ValueError):
        nd.TimeGrid(n_steps=0, dt=0.1)
    assert nd.unit_grid(4).dt == 0.25
    assert nd.unit_grid(4).times()[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Seeded streams
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_same_increments():
    grid = nd.unit_grid(100)
    a = nd.brownian_increments(grid, nd.NoiseSeed(7, 3))
    b = nd.brownian_increments(grid, nd.NoiseSeed(7, 3))
    assert np.array_equal(a, b)
    c = nd.brownian_increments(grid, nd.NoiseSeed(7, 4))
    assert not np.array_equal(a, c)


def test_child_seed_offsets_stream_id():
    s = nd.NoiseSeed(3, 2)
    assert s.child(5) == nd.NoiseSeed(3, 7)
    assert s.child(0) == s


def test_streams_and_domains_are_distinct():
    # Nearby stream ids must behave as independent streams, and the three
    # seed domains (noise / init / eval) must not collide for equal ids.
    grid = nd.unit_grid(2000)
    x = nd.brownian_increments(grid, nd.NoiseSeed(11, 0))
    y = nd.brownian_increments(grid, nd.NoiseSeed(11, 1))
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.1

    a = noise_generator(nd.NoiseSeed(5, 0)).standard_normal(50)
    b = nd.init_generator(5, 0).standard_normal(50)
    c = nd.eval_generator(5, 0).standard_normal(50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)
    # and the low-level accessor agrees with the domain wrapper
    d = stream_generator(5, DOMAIN_NOISE, 0).standard_normal(50)
    assert np.array_equal(a, d)


def test_brownian_increment_moments():
    grid = nd.TimeGrid(n_steps=20_000, dt=1 / 252)
    dw = nd.brownian_increments(grid, nd.NoiseSeed(42, 0))
    assert dw.shape == (20_000,)
    assert abs(dw.mean()) < 4 * math.sqrt(grid.dt / dw.size)
    assert dw.var() == pytest.approx(grid.dt, rel=0.05)


def test_brownian_path_is_cumulative_sum_of_increments():
    grid = nd.unit_grid(64)
    seed = nd.NoiseSeed(9, 0)
    path = nd.brownian_path(grid, seed)
    dw = nd.brownian_increments(grid, seed)
    assert path.values[0] == 0.0
    assert np.array_equal(path.values[1:], np.cumsum(dw))


def test_path_validates_length_and_finiteness():
    grid = nd.unit_grid(4)
    with pytest.raises(ValueError):
        nd.Path(grid, np.zeros(4))
    bad = np.zeros(5)
    bad[2] = np.nan
    with pytest.raises(ValueError):
        nd.Path(grid, bad)


# ---------------------------------------------------------------------------
# Fractional Brownian motion
# ---------------------------------------------------------------------------


def test_fbm_config_rejects_hurst_outside_unit_interval():
    grid = nd.unit_grid(8)
    for h in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            nd.FbmConfig(h, grid)


def test_fbm_is_deterministic_per_seed():
    cfg = nd.FbmConfig(0.3, nd.unit_grid(128))
    a = nd.fbm_path(cfg, nd.NoiseSeed(4, 1))
    b = nd.fbm_path(cfg, nd.NoiseSeed(4, 1))
    assert np.array_equal(a.values, b.values)
    assert a.values[0] == 0.0


def test_fbm_h_half_increments_look_brownian():
    # At H = 1/2 the increments are iid N(0, dt): variance matches and the
    # pooled lag-1 sample autocorrelation sits inside the 3-sigma band.
    n, n_paths = 500, 40
    cfg = nd.FbmConfig(0.5, nd.unit_grid(n))
    incs = np.concatenate(
        [nd.fbm_increments(cfg, nd.NoiseSeed(21, j)) for j in range(n_paths)]
    )
    assert incs.var() == pytest.approx(1.0 / n, rel=0.05)
    x, y = incs[:-1], incs[1:]
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 3 / math.sqrt(incs.size)


def test_fbm_exact_covariance_at_half_horizon():
    # Cov(B_s, B_t) = (s^2H + t^2H - |t-s|^2H) / 2; at s=1/2, t=1 the two
    # |t-s| terms cancel and the covariance is exactly 1/2 for every H.
    n, n_paths, h = 256, 8000, 0.2
    cfg = nd.FbmConfig(h, nd.unit_grid(n))
    half, full = np.empty(n_paths), np.empty(n_paths)
    for j in range(n_paths):
        v = nd.fbm_path(cfg, nd.NoiseSeed(42, j)).values
        half[j], full[j] = v[n // 2], v[n]
    cov = (half * full).mean()
    assert cov == pytest.approx(0.5, rel=0.05)


def test_fbm_variance_scaling_slope_matches_2h():
    # Pooled over a 200-path ensemble, the log-log regression of the mean
    # squared lag-m increment against m has slope 2H for dyadic lags.
    n, n_paths = 512, 200
    for h in (0.2, 0.5, 0.8):
        cfg = nd.FbmConfig(h, nd.unit_grid(n))
        vals = np.empty((n_paths, n + 1))
        for j in range(n_paths):
            vals[j] = nd.fbm_path(cfg, nd.NoiseSeed(314, j)).values
        lags, variances = [], []
        lag = 1
        while lag <= n // 8:
            d = vals[:, lag:] - vals[:, :-lag]
            lags.append(lag)
            variances.append(np.mean(d * d))
            lag *= 2
        x = np.log(np.asarray(lags, dtype=float))
        y = np.log(np.asarray(variances))
        xc = x - x.mean()
        slope = float((xc * y).sum() / (xc * xc).sum())
        assert slope == pytest.approx(2 * h, abs=0.1), f"H={h}: slope {slope}"


# ---------------------------------------------------------------------------
# ARMA kernel
# ---------------------------------------------------------------------------


def test_kernel_params_validation():
    nd.ArmaKernelParams(1.0, -1.0)  # q < 0 < p is allowed
    nd.ArmaKernelParams(2.0, 0.0)
    with pytest.raises(ValueError):
        nd.ArmaKernelParams(0.0, -1.0)
    with pytest.raises(ValueError):
        nd.ArmaKernelParams(1.0, 1.0)
    with pytest.raises(ValueError):
        nd.ArmaKernelParams(1.0, 2.0)
    with pytest.raises(ValueError):
        nd.ArmaKernelParams(np.nan, 0.0)


def test_kernel_frozen_values():
    params = nd.ArmaKernelParams(2.0, 1.0)
    # ell(0) = q * (1 - 2q(p-q) / ((2p-q)^2 - q^2)) = 1 - 2/8 by hand.
    assert nd.arma_ell(0.0, params) == pytest.approx(0.75, rel=1e-15)
    # High-precision evaluation of the closed form at u=1 (50-digit digits
    # frozen from an arbitrary-precision run): 7.1634412489727120677...
    assert nd.arma_ell(1.0, params) == pytest.approx(7.163441248972712, rel=1e-14)


def test_kernel_q_zero_returns_exact_zeros():
    params = nd.ArmaKernelParams(3.0, 0.0)
    assert nd.arma_ell(0.5, params) == 0.0
    u = np.linspace(0.0, 400.0, 9)  # e^{pu} alone would overflow here
    out = nd.arma_ell(u, params)
    assert np.array_equal(out, np.zeros(9))


def test_kernel_factorization_ell_su():
    # ell(s, u) = e^{-ps} * ell(u) for s > u > 0.
    rng = np.random.default_rng(6)
    for _ in range(200):
        p = rng.uniform(0.1, 8.0)
        q = p - rng.uniform(0.05, 4.0)
        params = nd.ArmaKernelParams(p, q)
        u = rng.uniform(0.0, 3.0)
        s = u + rng.uniform(1e-6, 3.0)
        direct = nd.arma_ell_su(s, u, params)
        factored = math.exp(-p * s) * nd.arma_ell(u, params)
        assert direct == pytest.approx(factored, rel=1e-12, abs=1e-300)
    with pytest.raises(ValueError):
        nd.arma_ell_su(0.5, 1.0, nd.ArmaKernelParams(2.0, 1.0))


def test_kernel_overflow_raises():
    params = nd.ArmaKernelParams(500.0, 1.0)
    with pytest.raises(KernelError):
        nd.arma_ell(2.0, params)  # e^{1000} has no double representation


# ---------------------------------------------------------------------------
# ARMA noise pair (Z, K)
# ---------------------------------------------------------------------------


def test_arma_noise_q_zero_is_brownian():
    grid = nd.TimeGrid(n_steps=300, dt=0.005)
    seed = nd.NoiseSeed(17, 0)
    z, k = nd.arma_noise_path(grid, nd.ArmaKernelParams(2.0, 0.0), seed)
    dw = nd.brownian_increments(grid, seed)
    assert np.array_equal(z.values[1:], np.cumsum(dw))
    assert np.array_equal(k.values, np.zeros(grid.n_points))


def test_arma_noise_k_accumulates_kernel_weighted_increments():
    grid = nd.TimeGrid(n_steps=200, dt=0.005)
    seed = nd.NoiseSeed(23, 0)
    params = nd.ArmaKernelParams(2.0, 1.0)
    _, k = nd.arma_noise_path(grid, params, seed)
    dw = nd.brownian_increments(grid, seed)
    ell = nd.arma_ell(grid.step_times(), params)
    assert np.array_equal(k.values[1:], np.cumsum(ell * dw))
    assert k.values[0] == 0.0
