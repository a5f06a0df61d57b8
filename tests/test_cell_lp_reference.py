"""The cell LP, solved as its p-row dual, against the free-variable program
it replaced.

``ref_cell_lp`` is the former ``cell_lp``: the region's n - 1 rows handed
to the free-variable simplex ``ref_solve_lp`` over p free variables, an
(n - 1) x (n + 2p) tableau.  It is kept here as the specification: both
must reach the same verdict and, when optimal, values within
1e-9 * (1 + |f|), and every unbounded ray must stay in the region while
the loss falls along it.
"""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rankwalk
from rankwalk import (
    LinearProgram,
    LpInfeasible,
    LpOptimal,
    LpUnbounded,
    Minimizer,
    RegressionData,
    ScoreVector,
    cell_lp,
    eval_loss,
    make_scores,
    minimize,
    residuals,
    verify_certificate,
)
from rankwalk.loss import _residuals_at
from rankwalk.model import sorted_scores

from reference_simplex import ref_solve_lp
from test_reference import FAMILIES, scenario

DATA = Path(__file__).resolve().parent / "data"


def ref_cell_lp(data, alpha, pi, lp_tol=1e-9, at=None):
    a = sorted_scores(alpha, data.n)
    res = _residuals_at(data, at, "at", origin=True)
    xp = data.x[list(pi)]
    ep = res.e[list(pi)]
    grad = a.alpha @ xp
    const = float(a.alpha @ data.y[list(pi)]) - float(grad @ res.beta)
    rows = tuple(zip(np.diff(xp, axis=0), ("<=",) * (data.n - 1), np.diff(ep).tolist()))
    out = ref_solve_lp(LinearProgram(-grad, rows), lp_tol=lp_tol)
    if isinstance(out, LpOptimal):
        return LpOptimal(res.beta + out.point, const + out.value, out.dual)
    if isinstance(out, LpUnbounded):
        return LpUnbounded(res.beta + out.point, out.ray)
    return out


def bench_cases():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "cases.py"
    spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def in_region(data, pi, beta):
    e = residuals(data, beta).e[list(pi)]
    return bool(np.all(np.diff(e) >= -1e-7 * (1.0 + np.abs(e).max())))


def assert_same_cell(data, alpha, pi, at):
    got = cell_lp(data, alpha, pi, at=at)
    want = ref_cell_lp(data, alpha, pi, at=at)
    assert type(got) is type(want)
    if isinstance(got, LpOptimal):
        assert abs(got.value - want.value) <= 1e-9 * (1.0 + abs(want.value))
        assert in_region(data, pi, got.point)
        a = sorted_scores(alpha, data.n)
        x = data.x[list(pi)]
        np.testing.assert_allclose(np.diff(x, axis=0).T @ got.dual, a.alpha @ x, atol=1e-7)
        assert (got.dual >= 0.0).all()
    elif isinstance(got, LpUnbounded):
        assert in_region(data, pi, got.point) and in_region(data, pi, got.point + 10.0 * got.ray)
        f0 = eval_loss(data, alpha, got.point)
        assert eval_loss(data, alpha, got.point + got.ray) < f0
    return got


def walk_cells(fits):
    """Every (data, alpha, pi, at) that ``minimize`` poses on the fits."""
    cells = []
    original = rankwalk.woa.cell_lp

    def recording(data, alpha, pi, at=None):
        cells.append((data, alpha, tuple(pi), at))
        return original(data, alpha, pi, at=at)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rankwalk.woa, "cell_lp", recording)
        for data, alpha in fits:
            minimize(data, alpha)
    return cells


@pytest.mark.parametrize("workload,rounds,count", [("walk", 4, 80), ("walk-hard", 2, 200)])
def test_walk_cells_match_the_free_variable_program(workload, rounds, count):
    cases = bench_cases()
    fits = [(c.data, c.alpha) for seed in (0, 1) for r in range(rounds)
            for c in cases.build_round(cases.WORKLOADS[workload], seed, r)]
    cells = walk_cells(fits)
    assert len(cells) >= count
    for data, alpha, pi, at in cells:
        assert isinstance(assert_same_cell(data, alpha, pi, at), LpOptimal)


def test_reference_family_cells_match_the_free_variable_program():
    fits = [(scenario(family, seed, 40, 3), make_scores(kind, 40))
            for family in FAMILIES for seed in (0, 1) for kind in ("sign", "wilcoxon")]
    cells = walk_cells(fits)
    assert len(cells) >= 20
    for data, alpha, pi, at in cells:
        assert_same_cell(data, alpha, pi, at)


def test_arbitrary_orderings_at_the_origin():
    """Shuffled orderings posed at the origin, which mostly lies outside
    their region: empty regions, and unbounded ones whose feasible point
    must come from the dual with a zero right-hand side."""
    rng = np.random.default_rng(11)
    seen = {LpOptimal: 0, LpUnbounded: 0, LpInfeasible: 0}
    outside = 0
    for t in range(400):
        n, p = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        x = rng.integers(-2, 3, size=(n, p)).astype(float) if t % 2 else rng.standard_normal((n, p))
        data = RegressionData(x, rng.standard_normal(n))
        alpha = ScoreVector(rng.standard_normal(n)) if t % 3 else make_scores("wilcoxon", n)
        pi = tuple(rng.permutation(n).tolist())
        outside += not in_region(data, pi, np.zeros(p))
        seen[type(assert_same_cell(data, alpha, pi, None))] += 1
    assert outside >= 200
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("p", [1, 2, 3])
def test_one_observation_has_no_rows(p):
    data = RegressionData(np.arange(1.0, p + 1.0).reshape(1, p), np.array([2.0]))
    out = assert_same_cell(data, ScoreVector([1.0]), (0,), None)
    assert isinstance(out, LpUnbounded)
    np.testing.assert_array_equal(out.point, np.zeros(p))
    flat = assert_same_cell(data, ScoreVector([0.0]), (0,), [0.5] * p)
    assert isinstance(flat, LpOptimal) and flat.value == 0.0 and flat.dual.shape == (0,)
    np.testing.assert_array_equal(flat.point, [0.5] * p)


def test_cell_lp_memory_stays_linear_in_n():
    """n = 2000, p = 3: the free-variable program peaked at about 154 MB
    in its (n - 1) x (n + 2p) tableau, its copy and its n x n dual solve."""
    n = 2000
    rng = np.random.default_rng(3)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    data = RegressionData(x, x @ rng.standard_normal(3) + rng.standard_t(2, n))
    alpha = make_scores("wilcoxon", n)
    res = residuals(data, np.zeros(3))
    pi = np.argsort(res.e, kind="stable")
    tracemalloc.start()
    try:
        out = cell_lp(data, alpha, pi, at=res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(out, LpOptimal)
    assert peak < 2 * 2**20, peak


def master_programs():
    """The descent search's master LPs, recorded with their outcomes from
    ``walk`` rounds 0-3 at seeds 0 and 1 on the free-variable simplex that
    preceded the standard-form core: (program, point, value, dual)."""
    rec = np.load(DATA / "descent_master_walk.npz")
    nv, m = rec["shapes"].T

    def split(name, sizes):
        return np.split(rec[name], np.cumsum(sizes)[:-1])

    relations = np.array(["<=", ">=", "=="])[rec["relations"]]
    for c, rows, rels, rhs, point, value, dual in zip(
            split("objective", nv), split("rows", nv * m), np.split(relations, np.cumsum(m)[:-1]),
            split("rhs", m), split("point", nv), rec["value"], split("dual", m)):
        prob = LinearProgram(c, tuple(zip(rows.reshape(rhs.size, c.size), rels.tolist(), rhs.tolist())))
        yield prob, point, value, dual


def test_descent_master_programs_replay_bit_for_bit():
    """The recorded master LPs on ``ref_solve_lp``, the free-variable
    simplex kept in the tests: it builds the same columns in the same order
    as when they were recorded, so it pivots the same way to the same
    bytes."""
    replayed = 0
    for prob, point, value, dual in master_programs():
        out = ref_solve_lp(prob)
        assert isinstance(out, LpOptimal)
        assert out.point.tobytes() == point.tobytes()
        assert out.value == value
        assert out.dual.tobytes() == dual.tobytes()
        replayed += 1
    assert replayed == 291


def test_walk_poses_every_region_at_a_point_inside_it(monkeypatch):
    """Start points whose residuals tie within the tolerance in reversed
    index order: listed by index within the tie block, the region missed
    the point and the cell LP needed phase 1.  In value order every
    right-hand side of every cell LP is nonnegative."""
    gaps = []
    original = rankwalk.woa.cell_lp

    def recording(data, alpha, pi, at=None):
        gaps.append(float(np.diff(_residuals_at(data, at, "at").e[list(pi)]).min()))
        return original(data, alpha, pi, at=at)

    monkeypatch.setattr(rankwalk.woa, "cell_lp", recording)
    rng = np.random.default_rng(23)
    for t in range(6):
        n, p = 30, 2 + t % 2
        x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        beta0 = rng.standard_normal(p)
        y = x @ beta0 + rng.standard_t(2, n)
        tie = 1e-9 * (1.0 + np.abs(y - x @ beta0).max())
        for i in range(0, 8, 2):  # e[i + 1] sits just below e[i]
            y[i + 1] = y[i] - x[i] @ beta0 + x[i + 1] @ beta0 - 0.5 * tie
        data = RegressionData(x, y)
        e = residuals(data, beta0).e
        assert all(0.0 < e[i] - e[i + 1] < tie for i in range(0, 8, 2))
        alpha = make_scores(("sign", "wilcoxon", "van_der_waerden")[t % 3], n)
        gaps.clear()
        out = minimize(data, alpha, beta0=beta0)
        assert isinstance(out, Minimizer)
        assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok
        assert gaps and min(gaps) >= 0.0
