"""What the benchmark does with a certificate keeps working.

``perfbench/run.py`` compares a traced fit with its untraced twin through
``same``, which reads every dataclass field, and its self-test tampers with
the G of a walk certificate.  Both run only in the benchmark's own suite,
after scipy is installed; these checks need neither."""

import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from rankwalk import OptimalityCertificate, make_scores, minimize, verify_certificate

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench_run():
    """``perfbench/run.py``, loaded with its sibling modules importable; the
    environment it pins and the import path it extends are put back after."""
    environ, path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(BENCH))
    added = ("perfbench_run", "cases", "spans")
    try:
        spec = importlib.util.spec_from_file_location(added[0], BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
        for name in added:
            sys.modules.pop(name, None)


@pytest.fixture(scope="module")
def case(bench_run):
    data = bench_run.cases.continuous(0, 12, 2)
    return data, make_scores("wilcoxon", data.n)


def test_a_tampered_walk_G_fails_decomposition(case):
    data, alpha = case
    out = minimize(data, alpha)
    G = np.array(out.certificate.G)
    G[0, 0] += 0.05
    tampered = OptimalityCertificate(G, out.certificate.decomposition)
    assert tampered.recomposition_dev == pytest.approx(0.05)
    assert "decomposition" in verify_certificate(data, alpha, out.beta_opt, tampered).failures


def test_same_compares_the_terms_without_building_G(bench_run, case):
    data, alpha = case
    first, second = minimize(data, alpha), minimize(data, alpha)
    assert bench_run.same(first, second)
    assert "G" not in vars(first.certificate) and "G" not in vars(second.certificate)
    cert = first.certificate
    nudged = OptimalityCertificate._of_terms(np.nextafter(cert.weights, 2.0), cert.orders)
    assert not bench_run.same(first, dataclasses.replace(first, certificate=nudged))
    assert "G" not in vars(nudged)
