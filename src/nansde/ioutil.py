"""File output helpers: full-precision CSV and atomic writes.

Every file is rendered to a string first and then moved into place with a
temp-then-rename, so partially written artifacts never appear under the
final name.  Floats are always formatted with 17 significant digits, which
round-trips IEEE doubles exactly; given the same inputs, outputs are
byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib

import numpy as np

from .metrics import MetricReport


def fmt(x: float) -> str:
    """A double with 17 significant digits (exact round-trip)."""
    return f"{float(x):.17g}"


def atomic_write_text(path, text: str):
    """Write a file via temp-then-rename in the target directory."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_manifest(path, payload: dict):
    """Canonical JSON (sorted keys, 2-space indent, trailing newline)."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return json.loads(pathlib.Path(path).read_text())


def ensemble_csv_text(times: np.ndarray, matrix: np.ndarray) -> str:
    """`t,path_0,...,path_{M-1}` CSV; ``matrix`` is (n_points, m)."""
    m = matrix.shape[1]
    lines = ["t," + ",".join(f"path_{j}" for j in range(m))]
    for i, t in enumerate(times):
        lines.append(fmt(t) + "," + ",".join(fmt(v) for v in matrix[i]))
    return "\n".join(lines) + "\n"


def loss_csv_text(history) -> str:
    """`iter,loss,best_loss` CSV; best is the running minimum of the history."""
    lines = ["iter,loss,best_loss"]
    best = math.inf
    for i, loss in enumerate(history):
        best = min(best, loss)
        lines.append(f"{i},{fmt(loss)},{fmt(best)}")
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    """One written value: a float at full precision, anything else as str gives it."""
    return fmt(value) if isinstance(value, float) else str(value)


def report_csv_text(rows: list[tuple[str, MetricReport]]) -> str:
    """Evaluation table: one labeled row per model, a column per report field."""
    names = [f.name for f in dataclasses.fields(MetricReport)]
    lines = [",".join(["model", *names])]
    for label, rep in rows:
        lines.append(",".join([label, *(_cell(getattr(rep, name)) for name in names)]))
    return "\n".join(lines) + "\n"


def detail_text(details: dict) -> str:
    """Key/value detail file, keys sorted, floats at full precision."""
    lines = [f"{key} {_cell(details[key])}" for key in sorted(details)]
    return "\n".join(lines) + "\n"
