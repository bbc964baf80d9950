"""The package root's public surface, and the names the benchmark reaches."""

import ast
import importlib
import importlib.util
import pathlib
import sys

import nansde as nd
from conftest import build_model

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_every_exported_name_resolves_once():
    assert len(nd.__all__) == len(set(nd.__all__))
    assert [name for name in nd.__all__ if not hasattr(nd, name)] == []


def test_every_benchmark_layer_target_resolves(monkeypatch):
    # A target that no longer resolves turns the layer's metrics to None.
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # its dataclasses look it up
    spec.loader.exec_module(layers)
    targets = [target for layer in layers.LAYERS for target in layer.targets]
    assert targets
    missing = []
    for target in targets:
        try:
            layers._resolve(target)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{target}: {exc}")
    assert missing == []


def test_every_name_the_benchmark_imports_exists():
    imported = []
    for source in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nansde":
                imported += [(source.name, node.module, alias.name) for alias in node.names]
    assert imported
    missing = []
    for source, module_name, name in imported:
        module = importlib.import_module(module_name)
        if not hasattr(module, name) and importlib.util.find_spec(f"{module_name}.{name}") is None:
            missing.append(f"{source}: from {module_name} import {name}")
    assert missing == []
    # The integrator check reads simulate_ensemble's result through this method.
    tape = nd.simulate_ensemble(build_model(nd.unit_grid(4)), 2, nd.NoiseSeed(1, 0))
    assert tape.values_matrix() is tape.x
