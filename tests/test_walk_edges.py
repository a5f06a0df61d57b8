"""Edges read from the cell LP's dual, and cell LPs started where a step lands.

At a simple vertex the cell LP's dual names the improving edge when exactly
one weighted row exceeds its score gap, and the region a step enters has
its minimum, most often, at the rows tied where the ray landed.  The walk
takes both: the descent master runs only where the dual answers neither
way, and a cell LP pivots only where the tied rows are not its optimal
basis.  The answers must stay those of the walk that posed the master and
started every cell LP cold (``data/walk_before_edges.json`` and
``data/walk_hard_before_edges.json``), and the vertex must be solved from
its rows: a start that took the step point itself certified some
``walk-hard`` fits above the optimum.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import rankwalk
import rankwalk.certificate as certificate
import rankwalk.lp as lp
from rankwalk import Minimizer, RegressionData, make_scores, minimize, verify_certificate

from test_cell_lp_reference import bench_cases

DATA = Path(__file__).resolve().parent / "data"


def counting(monkeypatch) -> dict:
    """Count, from now on, the descent searches that pose a master LP and
    the cell LPs that run the simplex (``lp._dual_once``)."""
    counts = dict(master_searches=0, cold_cells=0, cells=0)
    masters = [0]
    posed = [False]
    solve_by_dual, dual_once = certificate._solve_by_dual, lp._dual_once
    cell_lp, descent_search = rankwalk.woa.cell_lp, rankwalk.woa._descent_search

    def master(*args):
        masters[0] += 1
        return solve_by_dual(*args)

    def once(*args, **kwargs):
        posed[0] = True
        return dual_once(*args, **kwargs)

    def cell(*args, **kwargs):
        posed[0] = False
        out = cell_lp(*args, **kwargs)
        counts["cells"] += 1
        counts["cold_cells"] += posed[0]
        return out

    def search(*args):
        before = masters[0]
        out = descent_search(*args)
        counts["master_searches"] += masters[0] > before
        return out

    monkeypatch.setattr(certificate, "_solve_by_dual", master)
    monkeypatch.setattr(lp, "_dual_once", once)
    monkeypatch.setattr(rankwalk.woa, "cell_lp", cell)
    monkeypatch.setattr(rankwalk.woa, "_descent_search", search)
    return counts


def test_the_walk_reads_edges_and_starts_cell_lps_where_the_ray_lands(monkeypatch):
    """``walk`` rounds 0-3 at seeds 0 and 1: 96 fits, which posed 95 master
    searches and 178 cold cell LPs before, in 178 iterations."""
    before = json.loads((DATA / "walk_before_edges.json").read_text())["fits"]
    cases = bench_cases()
    counts = counting(monkeypatch)
    iterations, worst = 0, 0.0
    for want in before:
        case = cases.build_round(cases.WORKLOADS["walk"], want["seed"], want["round"])[
            int(want["case"].rsplit("#", 1)[1]) % len(cases.WORKLOADS["walk"].grid)]
        assert case.label == want["case"]
        out = minimize(case.data, case.alpha)
        assert isinstance(out, Minimizer), case.label
        assert verify_certificate(case.data, case.alpha, out.beta_opt, out.certificate).ok, case.label
        iterations += len(out.trace.iterations)
        worst = max(worst, abs(out.f_opt - want["f_opt"]) / abs(want["f_opt"]))
    assert len(before) == 96
    assert iterations == sum(want["iterations"] for want in before) == 178
    assert worst <= 1e-12
    assert counts["cells"] == 178
    assert counts["master_searches"] <= 20
    assert counts["cold_cells"] <= 105


# The edge read where the dual weighs rows [8, 11, 17] and only row 11 exceeds
# its gap is not the steepest descent: this fit takes two iterations more than
# the master's direction took, to the same f_opt.
SLOWER = {(1, 1, "wilcoxon/n=40/p=4/#19"): 2}


def test_walk_hard_fits_keep_their_answers_within_an_iteration():
    """``walk-hard`` rounds 0-1 at seeds 0 and 1: 60 fits, which took 287
    iterations before (``data/walk_hard_before_edges.json``).  Each fit
    still certifies the same ``f_opt`` within one iteration of the walk
    before, except those recorded in ``SLOWER`` with their extra count."""
    before = json.loads((DATA / "walk_hard_before_edges.json").read_text())["fits"]
    cases = bench_cases()
    iterations = 0
    for want in before:
        case = cases.build_round(cases.WORKLOADS["walk-hard"], want["seed"], want["round"])[
            int(want["case"].rsplit("#", 1)[1]) % len(cases.WORKLOADS["walk-hard"].grid)]
        assert case.label == want["case"]
        out = minimize(case.data, case.alpha)
        assert isinstance(out, Minimizer), case.label
        assert verify_certificate(case.data, case.alpha, out.beta_opt, out.certificate).ok, case.label
        assert abs(out.f_opt - want["f_opt"]) <= 1e-12 * abs(want["f_opt"]), case.label
        extra = len(out.trace.iterations) - want["iterations"]
        allowed = SLOWER.get((want["seed"], want["round"], want["case"]))
        assert extra == allowed if allowed is not None else abs(extra) <= 1, (case.label, extra)
        iterations += len(out.trace.iterations)
    assert len(before) == 60
    assert sum(want["iterations"] for want in before) == 287
    assert iterations <= 287 + sum(SLOWER.values())


@pytest.mark.parametrize("label, f_before", [("sign/n=30/p=6/#17", 37.183587481217366),
                                             ("sign/n=18/p=3/#25", 13.666666666666666)])
def test_a_warm_cell_lp_solves_its_vertex_from_the_tied_rows(label, f_before):
    """Two ``walk-hard`` fits at seed 0 that a start taking the step point as
    the vertex certified 1e-11 to 1.5e-10 above the optimum, with
    certificates that verified; ``f_before`` is the cold walk's ``f_opt``."""
    cases = bench_cases()
    case = next(c for c in cases.build_round(cases.WORKLOADS["walk-hard"], 0, 1) if c.label == label)
    out = minimize(case.data, case.alpha)
    assert isinstance(out, Minimizer)
    assert verify_certificate(case.data, case.alpha, out.beta_opt, out.certificate).ok
    assert abs(out.f_opt - f_before) <= 1e-12 * abs(f_before)


def test_an_edge_along_a_zero_row_is_not_read():
    """Two equal rows of x give a zero row of A: no edge pulls that pair
    apart, and its box norm is zero, which must not be divided by."""
    x = np.column_stack([np.ones(4), [0.0, 1.0, 1.0, 3.0]])
    R = np.linalg.qr(x, mode="r")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert certificate._edge(x, R, np.array([0, 1, 2, 3]), np.array([1]), np.array([True])) is None


def test_fits_on_repeated_rows_raise_no_numpy_warning():
    """Integer grids repeat rows of x and tie residuals exactly, so tied
    rows start cell LPs and weighted rows may repeat."""
    cases = bench_cases()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(6):
            for n, p in ((12, 2), (18, 3), (30, 2)):
                data = cases.integer_grid(seed, n, p)
                for kind in cases.KINDS:
                    alpha = make_scores(kind, n)
                    out = minimize(data, alpha)
                    assert isinstance(out, Minimizer)
                    assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok
                    doubled = RegressionData(np.vstack([data.x, data.x]), np.concatenate([data.y, data.y]))
                    assert isinstance(minimize(doubled, make_scores(kind, 2 * n)), Minimizer)
