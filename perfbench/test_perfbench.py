"""Self-test of the benchmark harness at toy size (n <= 8).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run  # puts the checkout's src/ first on sys.path
import cases
import rankwalk

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY_WALK = cases.Workload("walk", "minimize", (
    (cases.continuous, "wilcoxon", 7, 2), (cases.continuous, "sign", 8, 2),
    (cases.integer_grid, "van_der_waerden", 6, 3)), "toy")
TOY_GGD = cases.Workload("ggd-line", "ggd_minimize", (
    (cases.continuous, "wilcoxon", 8, 2), (cases.continuous, "sign", 7, 3)), "toy")


def toy_case(kind: str, n: int = 8, p: int = 2, seed: int = 3) -> cases.Case:
    return cases.Case(0, kind, n, p, cases.continuous(seed, n, p), rankwalk.make_scores(kind, n))


def checked(case, out) -> run.Fit:
    fit = run.Fit(case, 0.0, out)
    run.check_fits([fit])
    return fit


@pytest.mark.parametrize("kind", cases.KINDS)
def test_true_minimizer_passes(kind):
    case = toy_case(kind)
    fit = checked(case, rankwalk.minimize(case.data, case.alpha))
    assert not fit.failed, fit.problems


@pytest.mark.parametrize("kind", ["wilcoxon", "sign"])
def test_reference_matches_exhaustive_oracle(kind):
    import checks

    case = toy_case(kind, n=6)
    ref = checks.reference_value(kind, case.data)
    assert ref == pytest.approx(rankwalk.oracle_minimize(case.data, case.alpha).value, rel=1e-7, abs=1e-9)


def test_tampered_certificate_is_a_failure():
    case = toy_case("wilcoxon")
    out = rankwalk.minimize(case.data, case.alpha)
    G = np.array(out.certificate.G)
    G[0, 0] += 0.05
    tampered = rankwalk.OptimalityCertificate(G, out.certificate.decomposition)
    fit = checked(case, dataclasses.replace(out, certificate=tampered))
    assert fit.failed and any("certificate" in p for p in fit.problems)


@pytest.mark.parametrize("kind", cases.KINDS)
def test_wrong_f_opt_is_a_failure(kind):
    case = toy_case(kind)
    out = rankwalk.minimize(case.data, case.alpha)
    fit = checked(case, dataclasses.replace(out, f_opt=out.f_opt + 1e-3 * (1.0 + abs(out.f_opt))))
    assert fit.failed


def test_ggd_below_the_minimum_is_a_failure():
    case = toy_case("sign", n=7, p=3)
    out = rankwalk.ggd_minimize(case.data, case.alpha)
    assert not checked(case, out).failed
    lower = dataclasses.replace(out, f=out.f - 1.0)
    assert checked(case, lower).failed


def test_raised_fit_names_its_layers():
    case = toy_case("wilcoxon")
    fit = run.fit_case(TOY_WALK, dataclasses.replace(case, alpha=rankwalk.make_scores("wilcoxon", 5)))
    assert fit.failed and fit.error.startswith("ValueError")
    assert fit.layers[0] == "woa.minimize"


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("toy", [TOY_WALK, TOY_GGD], ids=lambda w: w.name)
def test_every_metric_name_is_printed(monkeypatch, capsys, toy, trace, group):
    monkeypatch.setitem(cases.WORKLOADS, toy.name, toy)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", toy.name, "--seed", "0", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(toy.grid) and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    report = json.loads(lines[-2])
    assert report["environment"]["src_lines"] > 0
    if trace:
        assert report["not_bit_identical"] == []
        assert rankwalk.minimize.__module__ == "rankwalk.woa" and not hasattr(rankwalk.minimize, "__wrapped__")


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "walk", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
