"""Cell LPs started where a step lands, and the walk's start step.

The region a step enters has its minimum, most often, at the rows tied
where the ray landed, so a cell LP pivots only where the tied rows are not
its optimal basis.  The answers must stay those of the walk that posed the
master at every point and started every cell LP cold
(``data/walk_before_edges.json`` and ``data/walk_hard_before_edges.json``),
and the vertex must be solved from its rows: a start that took the step
point itself certified some ``walk-hard`` fits above the optimum.  The
walk's start step, one line search down the gradient of the start's
region, poses the first region where it lands wherever F falls there,
which on the ``continuous`` fits of ``walk`` is that region's minimum.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import rankwalk
import rankwalk.certificate as certificate
import rankwalk.lp as lp
from rankwalk import Minimizer, RegressionData, WalkError, make_scores, minimize, residuals, verify_certificate

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


def walk_fits():
    """``walk`` rounds 0-3 at seeds 0 and 1 as (case, the fit before, whether
    its data is ``continuous``): 96 fits, 72 ``continuous`` and 24
    ``integer_grid``."""
    cases = bench_cases()
    grid = cases.WORKLOADS["walk"].grid
    for want in json.loads((DATA / "walk_before_edges.json").read_text())["fits"]:
        case = cases.build_round(cases.WORKLOADS["walk"], want["seed"], want["round"])[
            int(want["case"].rsplit("#", 1)[1]) % len(grid)]
        assert case.label == want["case"]
        yield case, want, grid[case.index % len(grid)][0] is cases.continuous


def test_the_walk_starts_cell_lps_where_the_ray_lands(monkeypatch):
    """``walk`` rounds 0-3 at seeds 0 and 1: 96 fits, which posed 95 master
    searches and 178 cold cell LPs before, in 178 iterations.  With warm
    cell LPs and the start step they take 96 iterations, at most 14 master
    searches and 25 cold cell LPs, all on ``integer_grid`` fits."""
    counts = counting(monkeypatch)
    fits, iterations, before, worst = 0, 0, 0, 0.0
    for case, want, _ in walk_fits():
        out = minimize(case.data, case.alpha)
        assert isinstance(out, Minimizer), case.label
        assert verify_certificate(case.data, case.alpha, out.beta_opt, out.certificate).ok, case.label
        fits += 1
        iterations += len(out.trace)
        before += want["iterations"]
        worst = max(worst, abs(out.f_opt - want["f_opt"]) / abs(want["f_opt"]))
    assert fits == 96
    assert before == 178
    assert iterations == 96
    assert worst <= 1e-12
    assert counts["cells"] == 96
    assert counts["master_searches"] <= 14
    assert counts["cold_cells"] <= 25


def test_a_start_without_ties_steps_to_its_line_minimum_and_certifies_at_once(monkeypatch):
    """The start step of ``minimize`` on ``walk`` rounds 0-3 at seeds 0 and
    1.  Each ``continuous`` start has no ties, and its region's minimum lies
    on the line down its gradient: the fit certifies in one iteration, its
    cell LP solved from the rows tied where the step landed and its dual the
    certificate, so no simplex and no master runs.  Each ``integer_grid``
    start has ties; it steps where F falls along its line and takes at most
    the iterations it took before.  Every ``f_opt`` is the one recorded."""
    counts = counting(monkeypatch)
    kinds = dict(continuous=0, integer_grid=0)
    for case, want, continuous in walk_fits():
        before = dict(counts)
        out = minimize(case.data, case.alpha)
        assert isinstance(out, Minimizer), case.label
        assert abs(out.f_opt - want["f_opt"]) <= 1e-12 * abs(want["f_opt"]), case.label
        if continuous:
            simplex, masters = (counts[k] - before[k] for k in ("cold_cells", "master_searches"))
            assert (len(out.trace), simplex, masters) == (1, 0, 0), case.label
        else:
            assert len(out.trace) <= want["iterations"], case.label
        kinds["continuous" if continuous else "integer_grid"] += 1
    assert kinds == dict(continuous=72, integer_grid=24)


@pytest.mark.parametrize("generator, n, scale, steps", [
    ("continuous", 30, 1.0, True),
    ("integer_grid", 12, 1.0, False),  # tied at the origin, and F does not fall along its line
    ("integer_grid", 30, 1.0, True),  # tied at the origin, and F falls
    ("continuous", 30, 1e307, False),  # the loss at the origin overflows
    ("continuous", 30, 1e305, False),  # a breakpoint of the start's line overflows
], ids=["tie-free", "tied", "tied-falling", "overflowing-loss", "overflowing-step"])
def test_the_first_region_is_posed_where_the_start_step_lands(monkeypatch, generator, n, scale, steps):
    """The first cell LP is posed at the start step's landing point, or,
    where F does not fall there, the loss at the start overflows or the step
    would, at the origin in the ordering there.  A step that overflows is
    not taken, so the fit at 1e305 certifies as the walk without the step
    did."""
    base = getattr(bench_cases(), generator)(3, n, 2)
    data, alpha = RegressionData(base.x, base.y * scale), make_scores("sign", n)
    posed, cell_lp = [], rankwalk.woa.cell_lp

    def spy(data, alpha, pi, at=None):
        posed.append((tuple(pi.tolist()), at.beta))
        return cell_lp(data, alpha, pi, at=at)

    monkeypatch.setattr(rankwalk.woa, "cell_lp", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near the largest float the rays overflow
        try:
            out = minimize(data, alpha)
        except WalkError as exc:
            assert scale == 1e307 and exc.layer == "ray", exc
        else:
            assert isinstance(out, Minimizer) and verify_certificate(data, alpha, out.beta_opt, out.certificate).ok
    pi, at = posed[0]
    origin = tuple(np.argsort(residuals(data, np.zeros(data.p)).e, kind="stable").tolist())
    assert (pi != origin and at.any()) if steps else (pi == origin and not at.any())


def test_walk_hard_fits_keep_their_answers_within_an_iteration():
    """``walk-hard`` rounds 0-1 at seeds 0 and 1: 60 fits, which took 287
    iterations before (``data/walk_hard_before_edges.json``).  Each fit
    still certifies the same ``f_opt`` and takes at most one iteration more
    than the walk before; with the start step they take 217 in all."""
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
        extra = len(out.trace) - want["iterations"]
        assert extra <= 1, (case.label, extra)
        iterations += len(out.trace)
    assert len(before) == 60
    assert sum(want["iterations"] for want in before) == 287
    assert iterations <= 217


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


def test_a_failed_warm_try_reads_only_its_rows(monkeypatch):
    """``walk-hard`` round 0 at seed 0 tries tied rows as the cell LP's
    dual basis 66 times, and 62 of the tries fail.  A failed try must cost
    O(p |rows|): neither a check nor a solve it makes may see all n - 1
    rows of the region."""
    seen, tries = [], dict(failed=0, held=0, wide=[])
    from_rows, check_rows, basic_rows_point = lp._from_rows, lp._check_rows, lp._basic_rows_point

    def spy(inner):
        def call(*args, **kwargs):
            seen.append([a.shape for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)])
            return inner(*args, **kwargs)
        return call

    def tried(c, A, b, rows):
        seen.clear()
        out = from_rows(c, A, b, rows)
        if rows.size:
            tries["held" if out is not None else "failed"] += 1
        if out is None:
            tries["wide"] += [shapes for shapes in seen if any(A.shape[0] in s for s in shapes)]
        return out

    monkeypatch.setattr(lp, "_from_rows", tried)
    monkeypatch.setattr(lp, "_check_rows", spy(check_rows))
    monkeypatch.setattr(lp, "_basic_rows_point", spy(basic_rows_point))
    cases = bench_cases()
    for case in cases.build_round(cases.WORKLOADS["walk-hard"], 0, 0):
        assert isinstance(minimize(case.data, case.alpha), Minimizer), case.label
    assert tries["failed"] >= 1 and tries["held"] >= 1, tries
    assert tries["wide"] == [], tries["wide"][:3]
