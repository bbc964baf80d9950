"""Release acceptance checks, one test per criterion.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Every stochastic check runs on frozen seeds; tolerances were
chosen with comfortable margins against independently computed oracles
(high-precision closed forms, quadrature, and finite differences).
"""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
from scipy.integrate import quad

import nansde as nd
from nansde import ioutil
from nansde.integrator import SIGMA_FLOOR, softplus
from nansde.neural import mlp_batch_backward, mlp_forward_batch_cached
from conftest import affine_net, constant_sigma_net, positive_observed_path


# ---------------------------------------------------------------------------
# 1. Gradient suite
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    # (a) standalone network: reverse-mode gradients of every parameter and
    # of the input agree with central differences to 1e-6 relative error
    # over 100 random draws.
    rng = np.random.default_rng(2024)
    widths_pool = [(1, 4, 1), (1, 3, 1), (1, 2, 2, 1)]
    worst_net = 0.0
    for draw in range(100):
        widths = widths_pool[draw % len(widths_pool)]
        p = nd.init_params(widths, seed=draw)
        x = float(rng.uniform(-2.0, 2.0))
        acts = mlp_forward_batch_cached(p, [[x]])
        g, x_grad = mlp_batch_backward(p, acts, [1.0])

        def f(params, xv=x):
            return float(nd.mlp_forward_batch(params, [[xv]])[0, 0])

        for arr, garr in zip(p.arrays(), g.arrays()):
            flat, gflat = arr.ravel(), garr.ravel()
            for i in range(flat.size):
                h = 1e-6 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                up = f(p)
                flat[i] = orig - h
                dn = f(p)
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-10)
                worst_net = max(worst_net, rel)
        fd_x = (f(p, x + 1e-6) - f(p, x - 1e-6)) / 2e-6
        rel = abs(fd_x - x_grad[0, 0]) / max(abs(fd_x), abs(x_grad[0, 0]), 1e-10)
        worst_net = max(worst_net, rel)
    print(f"criterion 1a: worst network gradient rel err {worst_net:.3g}")
    assert worst_net < 1e-6

    # (b) full pathwise NLL gradient on a tiny instance: T=20 steps, M=8
    # paths, (1, 4, 1) networks.  The KDE bandwidths are frozen at their
    # unperturbed values on both routes, matching the training loop's
    # treatment of the bandwidth as a constant.
    observed = positive_observed_path(20, scale=0.05, seed=123)
    obs = nd.log_returns(observed)
    cfg = nd.TrainConfig(seed=nd.NoiseSeed(0, 0), m=8, max_iters=1,
                         early_stop_patience=1)
    state = nd.init_state(observed, cfg, init_seed=1, widths=(1, 4, 1))
    model = state.model

    tape = nd.simulate_batch_with_tape(model, cfg.m, cfg.iteration_seed(0))
    assert tape.alive.all() and (tape.x > 0.0).all()  # clean instance
    returns = np.log(tape.x[1:] / tape.x[:-1])
    bandwidths = np.array([nd.silverman_bandwidth(row) for row in returns])

    loss, grads, n_valid = nd.loss_and_gradients(model, obs, cfg, 0,
                                                 bandwidths=bandwidths)
    assert n_valid == cfg.m

    def loss_at(m):
        value, _, _ = nd.loss_and_gradients(m, obs, cfg, 0, bandwidths=bandwidths)
        return value

    worst_loss = 0.0
    for name in model.trainable_names():
        arrays = model.net(name).arrays()
        grad_arrays = grads.bundle(name).arrays()
        for arr, garr in zip(arrays, grad_arrays):
            flat, gflat = arr.ravel(), garr.ravel()
            for i in range(flat.size):
                h = 1e-5 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                up = loss_at(model)
                flat[i] = orig - h
                dn = loss_at(model)
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
                worst_loss = max(worst_loss, rel)
    print(f"criterion 1b: loss {loss:.6g}, worst NLL gradient rel err {worst_loss:.3g}")
    assert worst_loss < 1e-3


# ---------------------------------------------------------------------------
# 2. Kernel oracle
# ---------------------------------------------------------------------------


def _ell_oracle(p: float, q: float, u: float) -> float:
    """ell(u) = q e^{pu} (1 - 2q(p-q) / ((2p-q)^2 e^{2(p-q)u} - q^2)),
    evaluated verbatim at 50 significant digits."""
    if q == 0.0:
        return 0.0
    with mpmath.workdps(50):
        P, Q, U = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(u)
        denom = (2 * P - Q) ** 2 * mpmath.e ** (2 * (P - Q) * U) - Q**2
        bracket = 1 - 2 * Q * (P - Q) / denom
        return float(Q * mpmath.e ** (P * U) * bracket)


def test_criterion_2_kernel_matches_high_precision_oracle():
    corners = [
        (2.0, 1.0, 0.0),
        (2.0, 1.0, 1.0),
        (2.0, -1.0, 3.0),
        (1.0, 0.999, 1.0),   # near-cancelling denominator
        (0.5, 0.25, 600.0),  # huge e^{2(p-q)u} inside the textbook form
        (155.0, 77.0, 4.4),  # ell ~ 1e296, just below double overflow
        (155.0, -60.0, 4.4),
        (120.0, 114.0, 5.0),
    ]
    rng = np.random.default_rng(7)
    cases = list(corners)
    while len(cases) < 100:
        p = float(10.0 ** rng.uniform(-0.5, 2.17))
        q = float(p * rng.uniform(-0.9, 0.95))
        u = float(rng.uniform(0.0, min(4.5, 690.0 / p)))
        cases.append((p, q, u))

    worst = 0.0
    for p, q, u in cases:
        got = nd.arma_ell(u, nd.ArmaKernelParams(p, q))
        want = _ell_oracle(p, q, u)
        rel = abs(got - want) / max(abs(want), 1e-300)
        worst = max(worst, rel)
    print(f"criterion 2: {len(cases)} kernel points, worst rel err {worst:.3g}")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 3. Noise-law oracle
# ---------------------------------------------------------------------------


def test_criterion_3_noise_variance_matches_quadrature():
    # The engine integrates the Markov pair dZ = -e^{-pt} K dt + dW,
    # dK = ell(t) dW.  Exchanging the time and stochastic integrals gives
    # Z(1) = int_0^1 kappa(u) dW(u) with
    # kappa(u) = 1 - ell(u)(e^{-pu} - e^{-p})/p, so by Ito isometry
    # Var Z(1) = int_0^1 kappa(u)^2 du -- an entirely simulation-free route.
    params = nd.ArmaKernelParams(2.0, 1.0)
    grid = nd.unit_grid(200)  # dt = 0.005
    m = 10_000

    def kappa(u):
        decay = (math.exp(-params.p * u) - math.exp(-params.p)) / params.p
        return 1.0 - nd.arma_ell(u, params) * decay

    target, quad_err = quad(lambda u: kappa(u) ** 2, 0.0, 1.0)
    assert quad_err < 1e-9

    z1 = np.empty(m)
    for j in range(m):
        z, _ = nd.arma_noise_path(grid, params, nd.NoiseSeed(0, j))
        z1[j] = z.values[-1]
    var = float(z1.var(ddof=1))
    sq = (z1 - z1.mean()) ** 2
    se = float(sq.std(ddof=1)) / math.sqrt(m)
    print(f"criterion 3: var {var:.6f} vs quadrature {target:.6f} "
          f"({abs(var - target) / se:.2f} SE)")
    assert abs(var - target) <= 3.0 * se


# ---------------------------------------------------------------------------
# 4. Hurst recovery
# ---------------------------------------------------------------------------


def test_criterion_4_hurst_recovery_on_exact_fbm():
    grid = nd.unit_grid(1000)
    for h_true in (0.2, 0.3, 0.5, 0.8):
        cfg = nd.FbmConfig(h_true, grid)
        estimates = [
            nd.estimate_hurst(nd.fbm_path(cfg, nd.NoiseSeed(99, j)))
            for j in range(100)
        ]
        median = float(np.median(estimates))
        print(f"criterion 4: H={h_true} -> median estimate {median:.4f}")
        assert abs(median - h_true) <= 0.05


# ---------------------------------------------------------------------------
# 5. Reductions
# ---------------------------------------------------------------------------


def test_criterion_5_reductions_are_bitwise():
    # (a) clamping ell2 makes the generator reproduce, bit for bit, the
    # plain two-term scheme dX = b dt + sigma dW on the same noise.
    grid = nd.unit_grid(64)
    model = nd.NansdeModel(
        drift_net=nd.init_params((1, 20, 1), seed=7, tag=0),
        diffusion_net=nd.init_params((1, 20, 1), seed=7, tag=1),
        ell1_net=nd.init_params((1, 20, 1), seed=7, tag=2),
        ell2_net=nd.init_params((1, 20, 1), seed=7, tag=3),
        grid=grid,
        x0=1.0,
        clamp_ell2=True,
    )
    seed = nd.NoiseSeed(88, 0)
    path = nd.simulate_ensemble(model, 1, seed).values_matrix()[:, 0]

    dw = nd.brownian_increments(grid, seed)
    x = np.array([1.0])
    collapsed = [1.0]
    for step in range(grid.n_steps):
        b = nd.mlp_forward_batch(model.drift_net, x[:, None])[:, 0]
        sigma = softplus(nd.mlp_forward_batch(model.diffusion_net, x[:, None])[:, 0]) + SIGMA_FLOOR
        x = x + (b - 0.0) * grid.dt + sigma * dw[step]
        collapsed.append(float(x[0]))
    assert np.array_equal(path, np.array(collapsed))

    # (b) q = 0 collapses the closed-form noise to plain Brownian motion.
    params = nd.ArmaKernelParams(2.0, 0.0)
    z, k = nd.arma_noise_path(grid, params, seed)
    assert np.array_equal(z.values, nd.brownian_path(grid, seed).values)
    assert np.array_equal(k.values, np.zeros(grid.n_points))
    print("criterion 5: both reductions bitwise exact")


# ---------------------------------------------------------------------------
# 6. Metric identities
# ---------------------------------------------------------------------------


def test_criterion_6_metric_identities():
    bins = nd.BinSpec(-1.0, 1.0, 20)
    r = nd.LogReturnSeries(np.linspace(-0.9, 0.9, 50))
    assert nd.tv_distance(r, [r], bins) == 0.0
    disjoint = nd.LogReturnSeries(np.full(50, 10.0))
    assert nd.tv_distance(r, [disjoint], bins) == 1.0

    wavy = nd.LogReturnSeries(np.sin(np.linspace(0.0, 9.0, 60)) + 1.5)
    assert nd.acf_scores(wavy, [wavy], 8) == (0.0, 0.0)

    for s in (1, 10, 100):
        assert abs(nd.acf_weights(s).mean() - 1.0) <= 1e-12

    target = np.array([0.1, -0.2, 0.3, 0.05])
    assert nd.r2_from_predictions(target, target) == 1.0
    assert nd.r2_from_predictions(target, np.full(4, target.mean())) == 0.0
    print("criterion 6: all metric identities exact")


# ---------------------------------------------------------------------------
# 7. Desk-scale direction check
# ---------------------------------------------------------------------------


def test_criterion_7_trained_hurst_sanity_corridor():
    # Train the full model and its memory-clamped baseline on one rough
    # (H=0.2) target path, 5 seeds each, and require the median ensemble
    # Hurst of the full model to land inside the sanity corridor
    # [0.30, 0.60].  This is a direction check, not point recovery: the
    # short budget and single path leave wide estimator spread.
    grid = nd.unit_grid(1000)
    raw = nd.fbm_path(nd.FbmConfig(0.2, grid), nd.NoiseSeed(2024, 0))
    observed = nd.Path(grid, raw.values + (1.0 - raw.values.min()))

    hurst = {False: [], True: []}
    for s in range(5):
        cfg = nd.TrainConfig(seed=nd.NoiseSeed(s, 0), m=64, max_iters=300,
                             early_stop_patience=60)
        for clamp in (False, True):
            best, _ = nd.fit(observed, cfg, init_seed=s, clamp_ell2=clamp)
            ens = nd.simulate_ensemble(best, 64, nd.NoiseSeed(9000 + s, 0))
            assert ens.alive.all()
            hurst[clamp].append(
                float(np.mean([nd.estimate_hurst(nd.Path(grid, x))
                               for x in ens.values_matrix().T]))
            )

    median = float(np.median(hurst[False]))
    print(f"criterion 7: ensemble hurst per seed {np.round(hurst[False], 4)}, "
          f"median {median:.4f} (clamped baseline median "
          f"{float(np.median(hurst[True])):.4f})")
    assert 0.30 <= median <= 0.60


# ---------------------------------------------------------------------------
# 8. Training smoke test
# ---------------------------------------------------------------------------


def test_criterion_8_training_improves_on_frozen_model_data():
    # Data generated by a frozen known model of the same family; training
    # from random nets must beat the untrained nets in >= 4 of 5 seeds on
    # (a) paired NLL (same evaluation noise for both models) and (b) TV
    # distance of generated returns to the data's returns.
    grid = nd.unit_grid(250)
    frozen = nd.NansdeModel(
        drift_net=affine_net(0.05, 0.0),
        diffusion_net=constant_sigma_net(0.3),
        ell1_net=affine_net(-0.5, 1.0),
        ell2_net=affine_net(0.0, 0.8),
        grid=grid,
        x0=1.0,
    )
    observed = nd.Path(grid, nd.simulate_ensemble(frozen, 1, nd.NoiseSeed(7, 0))
                       .values_matrix()[:, 0])
    assert np.all(observed.values > 0.0)
    obs_r = nd.log_returns(observed)
    bins = nd.BinSpec.from_samples(obs_r.r)

    def tv_of(model, seed):
        ens = nd.simulate_ensemble(model, 64, seed)
        assert ens.alive.all()
        gen = [nd.log_returns(nd.Path(grid, x)) for x in ens.values_matrix().T
               if np.all(x > 0.0)]
        return nd.tv_distance(obs_r, gen, bins)

    loss_wins = tv_wins = 0
    for s in range(5):
        cfg = nd.TrainConfig(seed=nd.NoiseSeed(100 + s, 0), m=64,
                             max_iters=300, early_stop_patience=300)
        initial = nd.init_state(observed, cfg, init_seed=200 + s).model
        best, state = nd.fit(observed, cfg, init_seed=200 + s)

        eval_cfg = nd.TrainConfig(seed=nd.NoiseSeed(999, 0), m=64,
                                  max_iters=300, early_stop_patience=300)
        nll_initial = nd.nll_loss(obs_r, nd.simulate_ensemble(
            initial, eval_cfg.m, eval_cfg.iteration_seed(0)), eval_cfg.kde_floor)
        nll_best = nd.nll_loss(obs_r, nd.simulate_ensemble(
            best, eval_cfg.m, eval_cfg.iteration_seed(0)), eval_cfg.kde_floor)
        if nll_best < nll_initial and state.best_loss < state.history[0]:
            loss_wins += 1

        tv_initial = tv_of(initial, nd.NoiseSeed(555 + s, 0))
        tv_best = tv_of(best, nd.NoiseSeed(555 + s, 0))
        if tv_best < tv_initial:
            tv_wins += 1
        print(f"criterion 8 seed {s}: nll {nll_initial:.4f} -> {nll_best:.4f}, "
              f"tv {tv_initial:.4f} -> {tv_best:.4f}")

    print(f"criterion 8: loss wins {loss_wins}/5, tv wins {tv_wins}/5")
    assert loss_wins >= 4
    assert tv_wins >= 4


# ---------------------------------------------------------------------------
# 9. Reproducibility
# ---------------------------------------------------------------------------


def test_criterion_9_outputs_reproduce_across_thread_counts(tmp_path):
    script = "import sys; from nansde.cli import main; sys.exit(main(sys.argv[1:]))"

    def run(threads: int, args: list[str]):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def snapshot(directory):
        return {
            str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()
        }

    observed = positive_observed_path(69, scale=0.05, seed=123)
    csv = tmp_path / "series.csv"
    csv.write_text("\n".join(ioutil.fmt(v) for v in observed.values) + "\n")

    snaps = {}
    for threads in (1, 8):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        run(threads, ["generate-fbm", "--hurst", "0.3", "--n-steps", "200",
                      "--n-paths", "2", "--seed", "31",
                      "--out", str(root / "fbm.csv")])

        cfg_path = root / "cfg.json"
        ioutil.atomic_write_text(cfg_path, (
            '{"data": "%s", "seed": 4, "out_dir": "%s", "init_seed": 104,'
            ' "m": 8, "max_iters": 3, "early_stop_patience": 3,'
            ' "widths": [1, 3, 1], "eval_m": 8, "r2_pred": 8}'
        ) % (csv, root / "run"))
        run(threads, ["train", "--config", str(cfg_path)])
        run(threads, ["evaluate", "--checkpoint", str(root / "run"),
                      "--data", str(csv), "--seed", "7", "--eval-m", "8",
                      "--r2-pred", "8", "--out", str(root / "ev")])

        snap = snapshot(root)
        del snap["cfg.json"]  # input, not output
        # manifests embed absolute paths; compare those semantically
        normalized = {
            name: data.replace(str(root).encode(), b"ROOT")
            for name, data in snap.items()
        }
        snaps[threads] = normalized

    assert set(snaps[1]) == set(snaps[8])
    for name in snaps[1]:
        assert snaps[1][name] == snaps[8][name], f"{name} differs across thread counts"
    print(f"criterion 9: {len(snaps[1])} files byte-identical across thread counts")
