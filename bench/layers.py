"""Per-layer timing of the package, taken from outside it.

A layer is one or more public functions of a module.  For one traced round
each of them is replaced by a wrapper where its callers look it up (the
attribute of the calling module, or the class for a method) and restored
afterwards, so the program itself is unchanged.  A wrapper keeps a span
(name, start, end, parent) in memory and, for some layers, counts taken from
the call's arguments or result.  A layer's self time is the length of its
spans minus that of their direct children; the program is single-threaded,
so children never overlap.

If a wrapped function no longer exists, the layer is reported as missing
(its metrics have the value None) rather than failing the run.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


def _rows(args, result):
    return {"rows": len(args[1])}


def _adjoint_rows(args, result):
    return {"rows": len(args[2])}


def _path_steps(args, result):
    model, m = args[0], args[1]
    return {"path_steps": m * model.grid.n_steps}


def _usable_paths(args, result):
    return {"usable": result[2], "simulated": args[2].m}


def _bytes(args, result):
    return {"bytes": len(args[1].encode("utf-8"))}


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[str, ...]  # "module:function" or "module:Class.method"
    span: bool = True  # False: count calls only
    count: Callable | None = None  # (args, result) -> counter increments


LAYERS = (
    Layer("noise.draw", ("nansde.integrator:brownian_increments",)),
    Layer(
        "rng.stream",
        ("nansde.noise:noise_generator", "nansde.metrics:eval_generator",
         "nansde.neural:init_generator"),
        span=False,
    ),
    Layer(
        "neural.forward",
        ("nansde.integrator:mlp_forward_batch", "nansde.integrator:mlp_forward_batch_cached"),
        count=_rows,
    ),
    Layer("neural.backward", ("nansde.integrator:mlp_batch_backward",), count=_adjoint_rows),
    Layer("integrator.simulate_batch", ("nansde.training:simulate_batch_with_tape",),
          count=_path_steps),
    Layer("integrator.backward", ("nansde.training:backpropagate",)),
    Layer("integrator.simulate_ensemble", ("nansde.metrics:simulate_ensemble",),
          count=_path_steps),
    Layer("training.step", ("nansde.training:train_step",)),
    Layer("training.loss", ("nansde.training:loss_and_gradients",), count=_usable_paths),
    Layer("optim.adam", ("nansde.optim:Adam.step",)),
    Layer("metrics.report", ("nansde.cli:compute_report",)),
    Layer("metrics.hurst", ("nansde.metrics:estimate_hurst",)),
    Layer("metrics.acf", ("nansde.metrics:acf_scores",)),
    Layer("metrics.tv", ("nansde.metrics:tv_distance",)),
    Layer("metrics.r2", ("nansde.metrics:r2_score",)),
    Layer("cli.ingest", ("nansde.cli:ingest_csv",)),
    Layer("cli.checkpoint_load", ("nansde.cli:load_checkpoint",)),
    Layer("ioutil.write", ("nansde.ioutil:atomic_write_text",), count=_bytes),
)

# Per-layer metrics: name, unit, the layers they read, and the statistic.
# "total" and "self" are seconds per round, "calls" and counter names are
# counts per round, and "a/b" is the ratio of two counters.
METRICS = (
    ("noise.draw_s", "s", ("noise.draw",), "total"),
    ("noise.draw_calls", "count", ("noise.draw",), "calls"),
    ("rng.streams", "count", ("rng.stream",), "calls"),
    ("neural.forward_s", "s", ("neural.forward",), "total"),
    ("neural.forward_calls", "count", ("neural.forward",), "calls"),
    ("neural.forward_rows", "count", ("neural.forward",), "rows"),
    ("neural.backward_s", "s", ("neural.backward",), "total"),
    ("neural.backward_calls", "count", ("neural.backward",), "calls"),
    ("neural.backward_rows", "count", ("neural.backward",), "rows"),
    ("integrator.simulate_batch_s", "s", ("integrator.simulate_batch",), "total"),
    ("integrator.simulate_batch_self_s", "s", ("integrator.simulate_batch",), "self"),
    ("integrator.path_steps", "count",
     ("integrator.simulate_batch", "integrator.simulate_ensemble"), "path_steps"),
    ("integrator.backward_s", "s", ("integrator.backward",), "total"),
    ("integrator.backward_self_s", "s", ("integrator.backward",), "self"),
    ("integrator.simulate_ensemble_s", "s", ("integrator.simulate_ensemble",), "total"),
    ("training.iterations", "count", ("training.step",), "calls"),
    ("training.loss_self_s", "s", ("training.loss",), "self"),
    ("training.step_self_s", "s", ("training.step",), "self"),
    ("training.paths_usable_ratio", "ratio", ("training.loss",), "usable/simulated"),
    ("optim.adam_s", "s", ("optim.adam",), "total"),
    ("optim.adam_calls", "count", ("optim.adam",), "calls"),
    ("metrics.report_self_s", "s", ("metrics.report",), "self"),
    ("metrics.hurst_s", "s", ("metrics.hurst",), "total"),
    ("metrics.acf_s", "s", ("metrics.acf",), "total"),
    ("metrics.tv_s", "s", ("metrics.tv",), "total"),
    ("metrics.r2_s", "s", ("metrics.r2",), "total"),
    ("cli.ingest_s", "s", ("cli.ingest",), "total"),
    ("cli.checkpoint_load_s", "s", ("cli.checkpoint_load",), "total"),
    ("ioutil.write_s", "s", ("ioutil.write",), "total"),
    ("ioutil.bytes_written", "count", ("ioutil.write",), "bytes"),
)


def _resolve(target: str):
    """(owner, attribute, current value) of a "module:qualified.name" target."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Wraps the layers for the length of a ``with`` block and keeps spans."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.missing: dict[str, str] = {}
        self.spans: list = []
        self.calls: Counter = Counter()
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._installed: list = []

    def __enter__(self):
        for layer in self.layers:
            for target in layer.targets:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    self.missing[layer.name] = f"{target} not found ({exc})"
                    continue
                setattr(owner, attr, self._wrap(layer, original))
                self._installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, layer: Layer, fn):
        name, calls = layer.name, self.calls
        if not layer.span:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            calls[name] += 1
            if layer.count is not None:
                self._count(layer, args, result)
            return result

        return traced

    def _count(self, layer: Layer, args, result):
        try:
            increments = layer.count(args, result)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            self.missing.setdefault(layer.name, f"cannot count {layer.name} calls ({exc})")
            return
        self.counters[layer.name].update(increments)

    def layer_stats(self) -> dict[str, dict]:
        """Seconds (total and self), calls and counts of each layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {layer.name: {"total": 0.0, "self": 0.0} for layer in self.layers}
        for (name, start, end, _), children in zip(self.spans, child_time):
            stats[name]["total"] += end - start
            stats[name]["self"] += end - start - children
        for layer in self.layers:
            stats[layer.name]["calls"] = self.calls[layer.name]
            stats[layer.name].update(self.counters[layer.name])
        return stats

    def metrics(self) -> dict[str, float | None]:
        """Every per-layer metric of the spans kept so far; None where missing."""
        stats = self.layer_stats()
        out = {}
        for metric, _unit, layers, stat in METRICS:
            if any(name in self.missing for name in layers):
                out[metric] = None
            elif "/" in stat:
                num, den = stat.split("/")
                den_total = sum(stats[name].get(den, 0) for name in layers)
                num_total = sum(stats[name].get(num, 0) for name in layers)
                out[metric] = num_total / den_total if den_total else 0.0
            else:
                out[metric] = sum(stats[name].get(stat, 0) for name in layers)
        return out

    def write_spans(self, path):
        """The spans as JSON; times are seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - origin, e - origin, p] for n, s, e, p in self.spans]
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": rows}, fh)
