"""The names of the package that the benchmark uses must exist.

``perfbench/spans.py`` names the layer functions it wraps in ``LAYERS`` and
looks each one up with ``getattr`` when a traced run starts, and every
module of ``perfbench/`` reads public names as ``rankwalk.<name>``, so a
deleted or renamed name would break the benchmark, not the package's own
tests."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import rankwalk


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_spans():
    path = BENCH / "spans.py"
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


def test_every_rankwalk_name_the_benchmark_reads_exists():
    """Each attribute chain ``rankwalk.a.b...`` written in ``perfbench/*.py``
    resolves, part by part."""
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id == "rankwalk":
                chains.add(tuple(reversed(parts)))
    assert ("make_scores",) in chains and ("ScoreVector",) in chains and ("OptimalityCertificate",) in chains
    for chain in sorted(chains):
        home = rankwalk
        for part in chain:
            assert hasattr(home, part), "rankwalk." + ".".join(chain)
            home = getattr(home, part)
