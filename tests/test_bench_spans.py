"""The layer functions that the benchmark's tracer wraps must exist.

``perfbench/spans.py`` names them in ``LAYERS`` and looks each one up with
``getattr`` when a traced run starts, so a deleted or renamed public layer
function would break the benchmark, not the package's own tests."""

import importlib.util
import inspect
import sys
from pathlib import Path

import rankwalk


def bench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_function_exists():
    layers = bench_spans().LAYERS
    assert layers
    for layer, names in layers.items():
        module = getattr(rankwalk, layer)
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"rankwalk.{layer}.{name}"
