"""Command-line experiment runner.

Four subcommands cover the full protocol:

* ``generate-fbm`` — write a fractional-Brownian-motion ensemble CSV,
* ``train`` — calibrate a generator to a CSV dataset per a JSON config,
* ``evaluate`` — score a trained checkpoint against a dataset,
* ``compare`` — train and score the full model and its memoryless
  (ell2-clamped) reduction under identical seeds and budgets.

Every command writes a manifest echoing the exact effective settings, and
all outputs are deterministic functions of those settings: rerunning a
command reproduces its files byte for byte.  Configuration is a flat JSON
object; all seeds are explicit (nothing falls back to the clock).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from . import ioutil
from .errors import DataError, IngestError, NansdeError, TrainingError
from .grid import unit_grid
from .integrator import NET_NAMES, NansdeModel
from .metrics import DEFAULT_BINS, DEFAULT_PREDICTIONS, compute_report
from .neural import params_from_text, params_to_text
from .noise import FbmConfig, Path, fbm_path
from .rng import NoiseSeed
from .training import DEFAULT_WIDTHS, TrainConfig, TrainState, fit

RUN_MANIFEST_TAG = "nansde-run v1"


# ---------------------------------------------------------------------------
# Data ingestion
# ---------------------------------------------------------------------------

MIN_POINTS = 65


@dataclass(frozen=True)
class Dataset:
    """A CSV series made ready for training: positive values on [0, 1].

    ``shift`` is the additive constant applied to enforce positivity (0 when
    the raw data was already positive), so ``path.values - shift`` restores
    the raw values.  ``warnings`` says what ingestion changed without failing.
    """

    name: str
    shift: float
    path: Path
    warnings: tuple[str, ...] = ()


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def ingest_csv(file) -> Dataset:
    """Parse a one-column (value) or two-column (t,value) CSV into a Dataset.

    A first row none of whose cells parses as a number is a header.
    Values with min <= 0 are shifted by 1 - min so log-returns exist; times,
    which must increase, give way to a uniform [0, 1] grid with dt = 1/T.
    Times whose steps differ from their mean step by more than 1e-6 of it
    are uneven, and the dataset's warnings say so.
    """
    file = pathlib.Path(file)
    try:
        lines = file.read_text().splitlines()
    except OSError as exc:
        raise IngestError(f"cannot read {file}: {exc}") from exc

    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            rows.append((lineno, [cell.strip() for cell in line.split(",")]))
    if not rows:
        raise IngestError(f"{file} contains no data")

    def parse_row(lineno: int, cells: list[str]) -> tuple[float | None, float]:
        try:
            if len(cells) == 1:
                return None, float(cells[0])
            if len(cells) == 2:
                return float(cells[0]), float(cells[1])
        except ValueError as exc:
            raise IngestError(f"{file}, line {lineno}: {exc}", line=lineno) from exc
        raise IngestError(
            f"{file}, line {lineno}: expected 1 or 2 columns, got {len(cells)}",
            line=lineno,
        )

    start = 0 if any(_is_number(cell) for cell in rows[0][1]) else 1
    if start == len(rows):
        raise IngestError(f"{file} contains only a header")

    width = len(rows[start][1])
    values, times = [], []
    for lineno, cells in rows[start:]:
        if len(cells) != width:
            raise IngestError(
                f"{file}, line {lineno}: expected {width} columns, got {len(cells)}",
                line=lineno,
            )
        time, value = parse_row(lineno, cells)
        if time is not None:
            if not np.isfinite(time):
                raise IngestError(f"{file}, line {lineno}: time {cells[0]} is not finite",
                                  line=lineno)
            if times and not time > times[-1]:
                raise IngestError(f"{file}, line {lineno}: time {cells[0]} is not above the "
                                  "previous", line=lineno)
            times.append(time)
        values.append(value)

    if len(values) < MIN_POINTS:
        raise DataError(
            f"{file}: dataset too short ({len(values)} points; need {MIN_POINTS})"
        )
    raw_values = np.array(values)
    if not np.isfinite(raw_values).all():
        raise IngestError(f"{file}: non-finite values present")

    low = raw_values.min()
    shift = 1.0 - low if low <= 0.0 else 0.0
    grid = unit_grid(len(values) - 1)
    warnings = ()
    if times:
        steps = np.diff(times)
        gap = float(np.abs(steps - steps.mean()).max() / steps.mean())
        if gap > 1e-6:
            warnings = (f"{file}: time steps differ from their mean by up to {gap:.3g} of it "
                        "(tolerance 1e-06); the series is placed on a uniform grid",)
    return Dataset(file.stem, float(shift), Path(grid, raw_values + shift), warnings)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

# The training schedule's keys and defaults are TrainConfig's own fields;
# its noise seed comes from the experiment seed.
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")
CONFIG_REQUIRED = ("data", "seed", "out_dir")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration for train/compare runs; ``train`` holds the schedule.

    The fields with defaults are the config file's optional keys.
    ``init_seed`` and ``eval_seed`` default to ``seed`` when absent.
    """

    data: str
    seed: int
    out_dir: str
    init_seed: int
    eval_seed: int
    train: TrainConfig
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    clamp_ell2: bool = False
    eval_m: int = 128
    eval_lags: int = 0  # 0 means min(100, T/4)
    eval_bins: int = DEFAULT_BINS
    r2_pred: int = DEFAULT_PREDICTIONS

    def __post_init__(self):
        if min(self.widths) < 1 or self.widths[0] != 1 or self.widths[-1] != 1:
            raise ValueError(f"widths must be >= 1, with 1 first and last, got {list(self.widths)}")
        for key, low in (("eval_m", 1), ("eval_lags", 0), ("eval_bins", 2), ("r2_pred", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")

    def manifest_settings(self) -> dict:
        """The flat keys of the config file, every default filled in."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "train"}
        out.update((key, getattr(self.train, key)) for key in TRAIN_KEYS)
        out["widths"] = list(self.widths)
        return out


def _json_type_error(key: str, value, hint) -> str | None:
    """Why a JSON value does not fit a key's annotated type, or None if it does.

    A bool is not an int, and an int counts as a float if a float can hold
    it; a tuple annotation takes a JSON list of its element type.
    """
    if typing.get_origin(hint) is tuple:
        element = typing.get_args(hint)[0]
        if not isinstance(value, list) or any(_json_type_error(key, v, element) for v in value):
            return f"{key} must be a list of {element.__name__}s, got {value!r}"
        return None
    kinds = (int, float) if hint is float else hint
    if not isinstance(value, kinds) or (hint is not bool and isinstance(value, bool)):
        return f"{key} must be of type {hint.__name__}, got {value!r}"
    if hint is float and not -sys.float_info.max <= value <= sys.float_info.max:
        return f"{key} must be a finite number, got an integer of {len(str(abs(value)))} digits"
    return None


def _finite_float(text: str) -> float:
    """json.loads hook for non-integer numbers and the NaN and Infinity literals:
    one that is not finite (1e999 overflows to inf) is rejected."""
    if not np.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_experiment_config(path) -> ExperimentConfig:
    """Read and validate a flat JSON config; unknown keys and bad values are rejected."""
    path = pathlib.Path(path)
    try:
        raw = json.loads(path.read_text(), parse_float=_finite_float, parse_constant=_finite_float)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"config {path} must be a JSON object")

    hints = typing.get_type_hints(ExperimentConfig)
    del hints["train"]
    hints.update((key, hint) for key, hint in typing.get_type_hints(TrainConfig).items()
                 if key in TRAIN_KEYS)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise DataError(f"config {path}: unknown keys {unknown}")
    missing = sorted(k for k in CONFIG_REQUIRED if k not in raw)
    if missing:
        raise DataError(f"config {path}: missing required keys {missing}")

    merged = dict(raw)
    merged.setdefault("init_seed", merged["seed"])
    merged.setdefault("eval_seed", merged["seed"])
    for key, value in merged.items():
        problem = _json_type_error(key, value, hints[key])
        if problem:
            raise DataError(f"config {path}: {problem}")
    widths = tuple(merged.pop("widths", DEFAULT_WIDTHS))
    if len(widths) < 2:
        raise DataError(f"config {path}: widths must be a list of at least 2 ints")
    schedule = {key: merged.pop(key) for key in TRAIN_KEYS if key in merged}
    try:
        train = TrainConfig(seed=NoiseSeed(merged["seed"], 0), **schedule)
        return ExperimentConfig(widths=widths, train=train, **merged)
    except (TypeError, ValueError) as exc:
        raise DataError(f"config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _check_lags(lags: int, dataset: Dataset, name: str):
    """Reject, before any work, more lags than T + 1 points can score: lag k
    correlates two windows of T - k returns, each needing two for a variance."""
    most = dataset.path.values.size - 3
    if lags > most:
        raise DataError(f"{name} {lags} above the {most} lags a series of {most + 3} points has")


def dataset_block(dataset: Dataset) -> dict:
    """The manifest's record of the series a model was trained or evaluated on."""
    return {
        "name": dataset.name,
        "n_points": int(dataset.path.values.size),
        "shift": ioutil.fmt(dataset.shift),
        "x0": ioutil.fmt(dataset.path.values[0]),
    }


def checkpoint_warnings(checkpoint_dir, evaluated: dict) -> list[str]:
    """One line if the checkpoint's manifest records an aborted fit, then one
    for each of ``n_points`` and ``shift`` in which the series recorded there
    differs from the evaluated one, compared as ``ioutil.fmt`` writes them;
    ``load_checkpoint`` re-anchors the model to the evaluated series without a word.
    """
    manifest = ioutil.read_manifest(pathlib.Path(checkpoint_dir) / "manifest.json")
    results, trained = manifest.get("results"), manifest.get("dataset")
    warnings = []
    if isinstance(results, dict) and results.get("status") == "aborted":
        warnings.append(f"checkpoint is an aborted fit's best so far: {results.get('error')}")
    for key in ("n_points", "shift") if isinstance(trained, dict) else ():
        try:
            same = key not in trained or ioutil.fmt(trained[key]) == ioutil.fmt(evaluated[key])
        except (TypeError, ValueError):  # not a number: as good as different
            same = False
        if not same:
            warnings.append(f"checkpoint trained on a series with {key} {trained[key]}, "
                            f"evaluated on {key} {evaluated[key]}")
    return warnings


def _write_manifest(path, command: str, settings: dict, **sections):
    """The one writer of run manifests: format tag, command, settings, then
    the command's own sections."""
    ioutil.write_manifest(
        path, {"format": RUN_MANIFEST_TAG, "command": command, "settings": settings, **sections}
    )


def _warn(lines):
    for line in lines:
        print(f"warning: {line}", file=sys.stderr)


def _flag_settings(args) -> dict:
    """A command's parsed flags: every one as it took effect, defaults included."""
    return {key: value for key, value in vars(args).items() if key not in ("command", "func")}


def fit_and_write(cfg: ExperimentConfig, dataset: Dataset) -> tuple[NansdeModel, TrainState]:
    """``fit``, then its checkpoint files (one per network), ``loss.csv`` and the
    manifest (warnings: the dataset's, then the training's).  An aborted fit
    writes its best-so-far ones, with ``"status": "aborted"`` and the error, and raises it."""
    error = None
    try:
        model, state = fit(dataset.path, cfg.train, cfg.init_seed, cfg.widths, cfg.clamp_ell2)
    except TrainingError as exc:
        model, state, error = exc.state.best_model, exc.state, exc
    out_dir = pathlib.Path(cfg.out_dir)
    for name in NET_NAMES:
        ioutil.atomic_write_text(out_dir / f"{name}.txt", params_to_text(model.net(name)))
    ioutil.atomic_write_text(out_dir / "loss.csv", ioutil.loss_csv_text(state.records))
    _write_manifest(
        out_dir / "manifest.json",
        "train",
        cfg.manifest_settings(),
        dataset=dataset_block(dataset),
        results={
            "best_loss": ioutil.fmt(state.best_loss),
            "best_iteration": state.best_iteration,
            "iterations": len(state.records),
            "warnings": [*dataset.warnings, *state.warnings],
            **({} if error is None else {"status": "aborted", "error": str(error)}),
        },
        model={"widths": list(model.drift_net.widths), "clamp_ell2": model.clamp_ell2},
    )
    if error is not None:
        raise error
    return model, state


def load_checkpoint(checkpoint_dir, dataset: Dataset) -> NansdeModel:
    """Rebuild a model from checkpoint files, re-anchored to a dataset.

    The grid and start value come from the dataset being evaluated (model
    time is always [0, 1]); the ell2 clamp comes from the checkpoint
    manifest, and each network's widths must be the manifest's.
    """
    checkpoint_dir = pathlib.Path(checkpoint_dir)
    manifest_path = checkpoint_dir / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no manifest.json under {checkpoint_dir}")
    try:
        manifest = ioutil.read_manifest(manifest_path)
    except ValueError as exc:
        raise DataError(f"{manifest_path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != RUN_MANIFEST_TAG:
        raise DataError(f"{manifest_path}: unrecognized manifest format")
    model = manifest.get("model")
    clamp_ell2 = model.get("clamp_ell2") if isinstance(model, dict) else None
    if not isinstance(clamp_ell2, bool):
        raise DataError(f"{manifest_path}: model.clamp_ell2 must be true or false")
    nets = {}
    for name in NET_NAMES:
        net_path = checkpoint_dir / f"{name}.txt"
        if not net_path.exists():
            raise DataError(f"missing checkpoint file {net_path}")
        try:
            nets[name] = params_from_text(net_path.read_text())
        except ValueError as exc:
            raise DataError(f"{net_path}: {exc}") from exc
    try:
        built = NansdeModel(
            nets["drift"],
            nets["diffusion"],
            nets["ell1"],
            nets["ell2"],
            grid=dataset.path.grid,
            x0=float(dataset.path.values[0]),
            clamp_ell2=clamp_ell2,
        )
    except ValueError as exc:
        raise DataError(f"{checkpoint_dir}: {exc}") from exc
    widths = model.get("widths")
    for name in NET_NAMES:
        if list(nets[name].widths) != widths:
            raise DataError(f"{checkpoint_dir / f'{name}.txt'}: widths {list(nets[name].widths)} "
                            f"differ from the manifest's model.widths {widths}")
    return built


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate_fbm(args) -> int:
    grid = unit_grid(args.n_steps)
    cfg = FbmConfig(args.hurst, grid)
    matrix = np.column_stack(
        [fbm_path(cfg, NoiseSeed(args.seed, j)).values for j in range(args.n_paths)]
    )
    out = pathlib.Path(args.out)
    ioutil.atomic_write_text(out, ioutil.ensemble_csv_text(grid.times(), matrix))
    _write_manifest(
        out.with_name(out.name + ".manifest.json"), "generate-fbm", _flag_settings(args)
    )
    print(f"wrote {args.n_paths} path(s) of {args.n_steps} steps to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_experiment_config(args.config)
    dataset = ingest_csv(cfg.data)
    _warn(dataset.warnings)
    model, state = fit_and_write(cfg, dataset)
    print(
        f"trained on {dataset.name}: best loss {state.best_loss:.6g} "
        f"at iteration {state.best_iteration} ({len(state.records)} iterations)"
    )
    print(f"artifacts in {cfg.out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    dataset = ingest_csv(args.data)
    _check_lags(args.lags, dataset, "--lags")
    model = load_checkpoint(args.checkpoint, dataset)
    evaluated = dataset_block(dataset)
    warnings = [*dataset.warnings, *checkpoint_warnings(args.checkpoint, evaluated)]
    _warn(warnings)
    report, details = compute_report(
        dataset.path, model, args.eval_m, args.seed, args.bins,
        n_lags=args.lags, m_pred=args.r2_pred,
    )
    out_dir = pathlib.Path(args.out)
    label = pathlib.Path(args.checkpoint).name or "model"
    ioutil.atomic_write_text(out_dir / "report.csv", ioutil.report_csv_text([(label, report)]))
    ioutil.atomic_write_text(out_dir / "detail.txt", ioutil.detail_text(details))
    _write_manifest(
        out_dir / "manifest.json", "evaluate", _flag_settings(args),
        dataset=evaluated, warnings=warnings,
    )
    print(
        f"{label}: hurst {report.hurst_mean:.4f} +/- {report.hurst_std:.4f}, "
        f"tv {report.tv:.4f}, acf {report.acf:.4f}, "
        f"weighted acf {report.weighted_acf:.4f}, r2 {report.r2:.4f}"
    )
    print(f"report in {out_dir}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_experiment_config(args.config)
    dataset = ingest_csv(cfg.data)
    _check_lags(cfg.eval_lags, dataset, f"config {args.config}: eval_lags")
    _warn(dataset.warnings)
    out_dir = pathlib.Path(cfg.out_dir)
    rows = []
    all_details = {}
    for label, clamp in (("nansde", False), ("sde", True)):
        sub = replace(cfg, clamp_ell2=clamp, out_dir=str(out_dir / label))
        try:
            model, state = fit_and_write(sub, dataset)
            report, details = compute_report(
                dataset.path, model, sub.eval_m, sub.eval_seed, sub.eval_bins,
                n_lags=sub.eval_lags, m_pred=sub.r2_pred,
            )
        except NansdeError as exc:  # the legs' own files stay; the record says which failed
            _write_manifest(out_dir / "manifest.json", "compare", cfg.manifest_settings(),
                            results={"status": "aborted", "leg": label, "error": str(exc)})
            raise
        rows.append((label, report))
        all_details.update((f"{label}.{key}", value) for key, value in details.items())
        print(
            f"{label}: best loss {state.best_loss:.6g}, hurst {report.hurst_mean:.4f} "
            f"+/- {report.hurst_std:.4f}, tv {report.tv:.4f}, r2 {report.r2:.4f}"
        )
    ioutil.atomic_write_text(out_dir / "comparison.csv", ioutil.report_csv_text(rows))
    ioutil.atomic_write_text(out_dir / "comparison_detail.txt", ioutil.detail_text(all_details))
    _write_manifest(out_dir / "manifest.json", "compare", cfg.manifest_settings())
    print(f"comparison in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _hurst_arg(value: str) -> float:
    h = float(value)
    if not 0.0 < h < 1.0:
        raise argparse.ArgumentTypeError(f"hurst must lie in (0, 1), got {h}")
    return h


def _int_at_least(low: int):
    """An argparse type: integers of at least ``low``."""

    def integer(value: str) -> int:
        n = int(value)
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {n}")
        return n

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nansde",
        description="Train and evaluate memory-aware neural SDE generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-fbm", help="write a fractional Brownian motion ensemble CSV")
    p.add_argument("--hurst", type=_hurst_arg, required=True, help="Hurst index in (0, 1)")
    p.add_argument("--n-steps", type=_int_at_least(1), default=1000, help="steps on [0, 1]")
    p.add_argument("--n-paths", type=_int_at_least(1), default=1, help="independent paths")
    p.add_argument("--seed", type=int, required=True, help="base noise seed")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_generate_fbm)

    p = sub.add_parser("train", help="calibrate a generator per a JSON config")
    p.add_argument("--config", required=True, help="flat JSON experiment config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained checkpoint against a dataset")
    p.add_argument("--checkpoint", required=True, help="directory written by train")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--seed", type=int, required=True, help="evaluation seed")
    p.add_argument("--eval-m", type=_int_at_least(1), default=ExperimentConfig.eval_m,
                   help="evaluation ensemble size")
    p.add_argument("--lags", type=_int_at_least(0), default=ExperimentConfig.eval_lags,
                   help="ACF lags (0 = min(100, T/4))")
    p.add_argument("--bins", type=_int_at_least(2), default=ExperimentConfig.eval_bins,
                   help="interior histogram bins")
    p.add_argument("--r2-pred", type=_int_at_least(1), default=ExperimentConfig.r2_pred,
                   help="R^2 prediction samples")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="train and score the full and ell2-clamped models")
    p.add_argument("--config", required=True, help="flat JSON experiment config")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NansdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
