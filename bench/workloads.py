"""The benchmark's three workloads: their inputs, commands and output checks.

Every input is made here from the benchmark seed; the program receives only
the files written into the workload's directory.  A workload's commands are
``nansde`` command lines, run in-process through ``nansde.cli.main``.

* ``compare_rough``: ``nansde compare`` on one exact fBm path (H=0.2,
  T=1000), m=64, widths [1, 20, 1], eval_m=128, a fixed budget of
  ``COMPARE_ITERS`` iterations per variant and early stopping disabled.
  Narrow batches on a long grid: the Euler sweep is bound by dispatch, and
  both the ell2-active and the ell2-clamped code paths run.
* ``train_wide``: ``nansde train`` on a T=250 path of the frozen generator
  of the training smoke test, m=512, full model, ``TRAIN_ITERS``
  iterations.  Eight times the rows per numpy call and a quarter of the
  steps: the backward pass works on (128000, 20) arrays and is bound by
  memory traffic.
* ``evaluate_long``: ``nansde evaluate`` of a fixed width-20 checkpoint on
  an exact fBm series (H=0.2, T=2000), eval_m=256, 100 ACF lags, at
  ``EVAL_SEEDS`` evaluation seeds.  Only the evaluation layers work.

The checks recompute what they can with ``reference.py`` and otherwise test
properties of the method; none compares with a stored earlier output.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil

import numpy as np

import reference as ref

COMPARE_ITERS = 6
TRAIN_ITERS = 8
EVAL_SEEDS = 3
KDE_FLOOR = 1e-12  # the program's default density floor
CHECKPOINT_SEED = 20260  # the fixed checkpoint of evaluate_long
INTEGRATOR_PATHS = 4
ACF_PATHS = 16
# The fBm input of compare_rough is redrawn until its start lies at least
# this far above its minimum: on a series that starts at its minimum the
# generator's paths cross zero, every iteration after the first drops more
# than a fifth of them, and no iteration can improve on the first.
MIN_START_HEADROOM = 0.5
# Agreement with the reference: relative, for recomputed values, and in
# standard errors, for statistics of two independent ensembles.
RTOL = 1e-9
Z_BAND = 5.0


def write_series(path: pathlib.Path, values: np.ndarray):
    path.write_text("value\n" + "".join(f"{v:.17g}\n" for v in values))


def shifted_positive(raw: np.ndarray) -> np.ndarray:
    """The program's ingest rule: a series with min <= 0 is shifted by 1 - min."""
    low = raw.min()
    return raw + (1.0 - low) if low <= 0.0 else raw


def read_csv_rows(path: pathlib.Path) -> list[dict]:
    header, *rows = path.read_text().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


def read_detail(path: pathlib.Path) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in path.read_text().splitlines() if line)


class Workload:
    """Inputs in ``work``, outputs in ``work / "out"``."""

    name = ""
    tag = 0  # separates the workloads' input draws for one seed

    def __init__(self, seed: int, work: pathlib.Path):
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.rng = np.random.default_rng([seed, self.tag])

    def setup(self):
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def path_steps(self) -> int:
        """Euler path-steps of one round, from the settings and manifests."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def clear_outputs(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def snapshot(self) -> dict[str, bytes]:
        """Every output file's bytes, by path below the output directory."""
        return {
            str(p.relative_to(self.out)): p.read_bytes()
            for p in sorted(self.out.rglob("*")) if p.is_file()
        }

    def write_config(self, **settings) -> str:
        path = self.work / "config.json"
        path.write_text(json.dumps(settings, indent=2, sort_keys=True))
        return str(path)


class CompareRough(Workload):
    name = "compare_rough"
    tag = 1
    n_steps = 1000
    m = 64
    eval_m = 128

    def setup(self):
        raw = ref.fbm(0.2, self.n_steps, self.rng)
        while raw[0] - raw.min() < MIN_START_HEADROOM:
            raw = ref.fbm(0.2, self.n_steps, self.rng)
        self.observed = shifted_positive(raw)
        self.data = self.work / "rough.csv"
        write_series(self.data, raw)
        self.config = self.write_config(
            data=str(self.data), seed=self.seed, out_dir=str(self.out), m=self.m,
            widths=[1, 20, 1], eval_m=self.eval_m, max_iters=COMPARE_ITERS,
            early_stop_patience=COMPARE_ITERS,
        )

    def commands(self):
        return [["compare", "--config", self.config]]

    def path_steps(self):
        steps = 0
        for variant in ("nansde", "sde"):
            manifest = json.loads((self.out / variant / "manifest.json").read_text())
            settings = manifest["settings"]
            steps += manifest["results"]["iterations"] * settings["m"] * self.n_steps
            steps += settings["eval_m"] * self.n_steps
        return steps

    def check(self):
        problems = []
        rows = {row["model"]: row for row in read_csv_rows(self.out / "comparison.csv")}
        detail = read_detail(self.out / "comparison_detail.txt")
        for variant, clamp in (("nansde", False), ("sde", True)):
            run_dir = self.out / variant
            problems += check_training(run_dir, self.observed, self.seed, self.m,
                                       COMPARE_ITERS, clamp)
            problems += check_integrator(run_dir, self.data, self.observed[0], clamp,
                                         self.seed + 1)
            if variant not in rows:
                problems.append(f"comparison.csv has no row {variant}")
                continue
            sub = {k.split(".", 1)[1]: v for k, v in detail.items() if k.startswith(variant + ".")}
            model = ref.read_model(run_dir, self.observed[0], clamp)
            problems += check_report(f"{variant} report", rows[variant], sub, self.observed,
                                     model, self.eval_m, self.rng)
        return problems


class TrainWide(Workload):
    name = "train_wide"
    tag = 2
    n_steps = 250
    m = 512

    def setup(self):
        frozen = ref.frozen_generator()
        while True:
            dw = self.rng.standard_normal((self.n_steps, 1)) * math.sqrt(1.0 / self.n_steps)
            x, alive = ref.simulate(frozen, dw)
            if alive[0] and (x > 0.0).all():
                break
        self.observed = x[:, 0]
        self.data = self.work / "frozen.csv"
        write_series(self.data, self.observed)
        self.config = self.write_config(
            data=str(self.data), seed=self.seed, out_dir=str(self.out), m=self.m,
            max_iters=TRAIN_ITERS, early_stop_patience=TRAIN_ITERS,
        )

    def commands(self):
        return [["train", "--config", self.config]]

    def path_steps(self):
        manifest = json.loads((self.out / "manifest.json").read_text())
        return manifest["results"]["iterations"] * manifest["settings"]["m"] * self.n_steps

    def check(self):
        problems = check_training(self.out, self.observed, self.seed, self.m, TRAIN_ITERS, False)
        return problems + check_integrator(self.out, self.data, self.observed[0], False,
                                           self.seed + 1)


class EvaluateLong(Workload):
    name = "evaluate_long"
    tag = 3
    n_steps = 2000
    eval_m = 256

    def setup(self):
        raw = ref.fbm(0.2, self.n_steps, self.rng)
        self.observed = shifted_positive(raw)
        self.data = self.work / "long.csv"
        write_series(self.data, raw)
        self.checkpoint = self.work / "fixed"
        self.checkpoint.mkdir()
        nets = np.random.default_rng(CHECKPOINT_SEED)
        for name in ref.NET_NAMES:
            text = ref.format_mlp(ref.random_mlp((1, 20, 1), nets))
            (self.checkpoint / f"{name}.txt").write_text(text)
        (self.checkpoint / "manifest.json").write_text(json.dumps(
            {"format": "nansde-run v1", "command": "train",
             "model": {"clamp_ell2": False, "widths": [1, 20, 1]}}))
        self.eval_seeds = [self.seed + 7919 * (i + 1) for i in range(EVAL_SEEDS)]

    def commands(self):
        return [
            ["evaluate", "--checkpoint", str(self.checkpoint), "--data", str(self.data),
             "--seed", str(s), "--eval-m", str(self.eval_m), "--out", str(self.out / f"seed{i}")]
            for i, s in enumerate(self.eval_seeds)
        ]

    def path_steps(self):
        steps = 0
        for i in range(len(self.eval_seeds)):
            manifest = json.loads((self.out / f"seed{i}" / "manifest.json").read_text())
            steps += manifest["settings"]["eval_m"] * self.n_steps
        return steps

    def check(self):
        problems = check_integrator(self.checkpoint, self.data, self.observed[0], False,
                                    self.seed + 1)
        model = ref.read_model(self.checkpoint, self.observed[0], False)
        for i in range(len(self.eval_seeds)):
            out = self.out / f"seed{i}"
            rows = read_csv_rows(out / "report.csv")
            if len(rows) != 1:
                problems.append(f"{out.name}/report.csv has {len(rows)} rows, expected 1")
                continue
            problems += check_report(f"evaluate seed{i}", rows[0], read_detail(out / "detail.txt"),
                                     self.observed, model, self.eval_m, self.rng)
        return problems


WORKLOADS = {cls.name: cls for cls in (CompareRough, TrainWide, EvaluateLong)}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def check_training(run_dir: pathlib.Path, observed: np.ndarray, seed: int, m: int,
                   iters: int, clamp: bool) -> list[str]:
    """A finished ``train`` run: loss history, best loss and its checkpoint."""
    label = run_dir.name
    problems = []
    manifest = json.loads((run_dir / "manifest.json").read_text())
    results = manifest["results"]
    if results["iterations"] != iters:
        problems.append(f"{label}: {results['iterations']} iterations, budget {iters}")
    if manifest["model"]["clamp_ell2"] != clamp:
        problems.append(f"{label}: clamp_ell2 is {manifest['model']['clamp_ell2']}")
    if float(manifest["dataset"]["x0"]) != observed[0]:
        problems.append(f"{label}: x0 {manifest['dataset']['x0']} != {observed[0]!r}")

    losses = [float(row["loss"]) for row in read_csv_rows(run_dir / "loss.csv")]
    if len(losses) != iters or not all(math.isfinite(v) for v in losses):
        problems.append(f"{label}: loss.csv needs {iters} finite rows, got {losses}")
        return problems
    best_loss, best_iter = float(results["best_loss"]), results["best_iteration"]
    if not 0 <= best_iter < iters or losses[best_iter] != best_loss:
        problems.append(f"{label}: best loss {best_loss} at {best_iter} not in loss.csv")
        return problems
    if not best_loss < losses[0]:
        problems.append(f"{label}: best loss {best_loss} not below iteration 0's {losses[0]}")

    model = ref.read_model(run_dir, observed[0], clamp)
    expected = ref.training_nll(model, observed, seed, best_iter, m, KDE_FLOOR)
    if not _close(best_loss, expected):
        problems.append(f"{label}: best loss {best_loss!r} but the reference NLL of the "
                        f"checkpoint on iteration {best_iter}'s noise is {expected!r}")
    return problems


def check_integrator(checkpoint: pathlib.Path, data: pathlib.Path, x0: float, clamp: bool,
                     seed: int) -> list[str]:
    """A few ``simulate_ensemble`` paths of a checkpoint against the reference."""
    from nansde import NoiseSeed, simulate_ensemble
    from nansde.cli import ingest_csv, load_checkpoint

    model = load_checkpoint(checkpoint, ingest_csv(data))
    got = simulate_ensemble(model, INTEGRATOR_PATHS, NoiseSeed(seed, 0)).values_matrix()
    dw = ref.program_increments(got.shape[0] - 1, seed, 0, INTEGRATOR_PATHS)
    expected, alive = ref.simulate(ref.read_model(checkpoint, x0, clamp), dw)
    if not alive.all() or not np.allclose(got, expected, rtol=RTOL, atol=RTOL):
        worst = float(np.max(np.abs(got - expected)))
        return [f"{checkpoint.name}: simulate_ensemble differs from the reference "
                f"Euler scheme by up to {worst:.3g}"]
    return []


def check_report(label: str, row: dict, detail: dict, observed: np.ndarray, model,
                 eval_m: int, rng: np.random.Generator) -> list[str]:
    """One report row and its details, against the reference statistics.

    The ensemble statistics are compared with those of an ensemble the
    reference simulates on its own noise, within ``Z_BAND`` standard errors
    of the difference of two ensemble means.
    """
    problems = []
    r_obs = np.log(observed[1:] / observed[:-1])
    n_lags = min(100, r_obs.size // 4)
    expected = {"n_paths": eval_m, "n_lags": n_lags, "n_bins": 50 + 2}
    for key, want in expected.items():
        if int(row[key]) != want:
            problems.append(f"{label}: {key} {row[key]}, expected {want}")
    values = {k: float(row[k]) for k in ("hurst_mean", "hurst_std", "tv", "acf", "weighted_acf", "r2")}
    if not all(math.isfinite(v) for v in values.values()):
        problems.append(f"{label}: non-finite value in {values}")
        return problems
    if not 0.0 <= values["tv"] <= 1.0:
        problems.append(f"{label}: tv {values['tv']} outside [0, 1]")
    if values["acf"] < 0.0 or values["weighted_acf"] < 0.0:
        problems.append(f"{label}: negative ACF score")
    if values["r2"] > 1.0:
        problems.append(f"{label}: r2 {values['r2']} above 1")
    h_obs = ref.hurst(observed)
    if not _close(float(detail["hurst_observed"]), h_obs):
        problems.append(f"{label}: hurst_observed {detail['hurst_observed']}, reference {h_obs!r}")

    n = observed.size - 1
    x, alive = ref.simulate(model, rng.standard_normal((n, eval_m)) * math.sqrt(1.0 / n))
    hurst = np.array([ref.hurst(x[:, j]) for j in range(eval_m) if alive[j]])
    band = Z_BAND * math.sqrt(values["hurst_std"] ** 2 / eval_m + hurst.var(ddof=1) / hurst.size)
    if abs(values["hurst_mean"] - hurst.mean()) > band:
        problems.append(f"{label}: hurst_mean {values['hurst_mean']:.5f}, reference ensemble "
                        f"{hurst.mean():.5f}, band {band:.5f}")

    positive = alive & (x > 0.0).all(axis=0)
    n_gen = int(detail["n_return_paths"])
    if positive.sum() < 2 or n_gen < 1:
        return problems + [f"{label}: too few positive paths to score the ACF"]
    xs = x[:, positive]
    returns = np.log(xs[1:] / xs[:-1])
    profiles = ref.abs_return_acf(returns, n_lags)
    gap = ref.abs_return_acf(r_obs, n_lags) - profiles.mean(axis=1)
    var = profiles.var(axis=1, ddof=1) * (1.0 / n_gen + 1.0 / positive.sum())
    weights = 2.0 * np.arange(1, n_lags + 1) / (n_lags + 1)
    for key, w in (("acf", 1.0), ("weighted_acf", weights)):
        want = float(np.sqrt(((w * gap) ** 2).sum()))
        band = Z_BAND * float(np.sqrt((w * w * var).sum()))
        if abs(values[key] - want) > band:
            problems.append(f"{label}: {key} {values[key]:.5f}, reference ensemble "
                            f"{want:.5f}, band {band:.5f}")

    # The band above cannot see a small error in the ACF itself, so the
    # scoring function the report uses is also run on a few reference paths.
    from nansde import LogReturnSeries, acf_scores

    few = returns[:, :ACF_PATHS]
    got = acf_scores(LogReturnSeries(r_obs), [LogReturnSeries(c) for c in few.T], n_lags)
    gap = ref.abs_return_acf(r_obs, n_lags) - ref.abs_return_acf(few, n_lags).mean(axis=1)
    want = (float(np.sqrt((gap ** 2).sum())), float(np.sqrt(((weights * gap) ** 2).sum())))
    if not (_close(got[0], want[0]) and _close(got[1], want[1])):
        problems.append(f"{label}: acf_scores gives {got} on reference paths, expected {want}")
    return problems
