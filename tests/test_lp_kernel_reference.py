"""The simplex kernel against the loops it was tuned from.

``ref_standard`` and its helpers are the standard-form core as it stood
before the pivot loop lost its per-iteration gathers: every candidate
column and eligible row gathered into index arrays, the ratio test taken
over the gathered rows and the objective row built with ``np.append``.
The kernel must reach the same ``_Std`` byte for byte (tableau, basis,
kept rows, entering column, Farkas multipliers) on every program the walk
poses and on seeded programs that reach each of the core's exits: phase 1
dropping dependent rows, the switch to Bland's rule after a stall, an
infeasible program, an unbounded one, and programs with no columns.
"""

import numpy as np

import rankwalk
from rankwalk.lp import _DEGEN_TOL, _PIVOT_TOL, LpNumericError, _standard, _Std

from test_cell_lp_reference import bench_cases


def ref_reduced_row(T, basis, cvec):
    cb = cvec[basis]
    live = cb != 0.0
    return np.append(cvec, 0.0) - cb[live] @ T[live]


def ref_pivot(T, obj, basis, r, j):
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    obj -= obj[j] * T[r]
    T[:, j] = 0.0
    T[r, j] = 1.0
    obj[j] = 0.0
    basis[r] = j


def ref_run(T, obj, basis, lp_tol, bland, switched):
    """The pivot loop; appends to ``switched`` when a stall hands over to
    Bland's rule."""
    m, ncols1 = T.shape
    stall = 0
    stall_limit = 50 * max(1, m)
    for _ in range(5000 + 60 * m + 10 * ncols1):
        rc = obj[:-1]
        cand = np.flatnonzero(rc < -lp_tol)
        if cand.size == 0:
            return None
        j = cand[0] if bland else cand[np.argmin(rc[cand])]
        col = T[:, j]
        elig = np.flatnonzero(col > _PIVOT_TOL)
        if elig.size == 0:
            return int(j)
        ratios = T[elig, -1] / col[elig]
        best = ratios.min()
        ties = elig[ratios <= best + 1e-12 * (1.0 + abs(best))]
        r = int(ties[np.argmin(basis[ties])])
        if best < _DEGEN_TOL:
            stall += 1
            if stall > stall_limit and not bland:
                bland = True
                switched.append(1)
        else:
            stall = 0
        ref_pivot(T, obj, basis, r, int(j))
    raise LpNumericError("pivot budget exhausted")


def ref_standard(c, M, rhs, slack, lp_tol, bland, switched=None):
    switched = [] if switched is None else switched
    m, N = M.shape
    art_rows = np.flatnonzero(slack < 0)
    nart = art_rows.size
    T = np.zeros((m, N + nart + 1))
    T[:, :N] = M
    T[art_rows, N + np.arange(nart)] = 1.0
    T[:, -1] = rhs
    basis = np.array(slack, dtype=np.intp)
    basis[art_rows] = N + np.arange(nart)
    kept = np.arange(m)
    if nart:
        start = basis.copy()
        c1 = np.zeros(N + nart)
        c1[N:] = 1.0
        obj1 = ref_reduced_row(T, basis, c1)
        if ref_run(T, obj1, basis, lp_tol, bland, switched) is not None:
            raise LpNumericError("phase 1 reported unbounded")
        feas_tol = 10.0 * lp_tol * (1.0 + (abs(rhs).max() if m else 0.0))
        if -obj1[-1] > feas_tol:
            return _Std(farkas=c1[start] - obj1[start])
        drop = []
        for r in np.flatnonzero(basis >= N).tolist():
            row = np.abs(T[r, :N])
            if row.size and row.max() > 1e-9:
                ref_pivot(T, obj1, basis, r, int(row.argmax()))
            else:
                drop.append(r)
        if drop:
            keep_mask = np.ones(m, dtype=bool)
            keep_mask[drop] = False
            T = T[keep_mask]
            basis = basis[keep_mask]
            kept = kept[keep_mask]
        if np.any(T[:, -1] < -feas_tol):
            raise LpNumericError("negative basic value after phase 1 cleanup")
        T[:, -1] = np.maximum(T[:, -1], 0.0)
        T = np.hstack([T[:, :N], T[:, -1:]])
    obj2 = ref_reduced_row(T, basis, c)
    return _Std(T, basis, kept, ref_run(T, obj2, basis, lp_tol, bland, switched))


def outcome(fn, args):
    """The _Std of ``fn`` on copies of ``args``, or the error it raised."""
    try:
        return fn(*(a.copy() if isinstance(a, np.ndarray) else a for a in args))
    except LpNumericError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, _Std)
    for name in _Std._fields:
        g, w = getattr(got, name), getattr(want, name)
        if w is None:
            assert g is None, name
        elif name == "entering":
            assert type(g) is int and g == w
        else:
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name


def test_every_program_of_the_walk_pivots_as_before(monkeypatch):
    """Cell LPs and descent masters of ``walk`` rounds 0-9 and ``walk-hard``
    rounds 0-1 at seeds 0 and 1, recorded as the kernel receives them."""
    programs = []

    def recording(*args):
        programs.append(tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args))
        return _standard(*args)

    monkeypatch.setattr(rankwalk.lp, "_standard", recording)
    cases = bench_cases()
    for workload, rounds in (("walk", 10), ("walk-hard", 2)):
        for seed in (0, 1):
            for rnd in range(rounds):
                for case in cases.build_round(cases.WORKLOADS[workload], seed, rnd):
                    rankwalk.minimize(case.data, case.alpha)
    monkeypatch.undo()
    assert len(programs) >= 1100
    for args in programs:
        assert_same(outcome(_standard, args), outcome(ref_standard, args))


def seeded_programs():
    """Small standard-form programs, min c.y subject to My = rhs, y >= 0:
    dense integer rows, with duplicated rows (dependent, dropped by phase 1),
    unit slack columns on some rows, and columns that make it unbounded."""
    rng = np.random.default_rng(17)
    for t in range(600):
        m, n = int(rng.integers(1, 6)), int(rng.integers(0, 8))
        M = rng.integers(-2, 3, (m, n)).astype(float)
        rhs = rng.integers(0, 4, m).astype(float)
        if t % 3 == 0 and m > 1:  # a dependent row
            k = int(rng.integers(1, m))
            M[k], rhs[k] = 2.0 * M[0], 2.0 * rhs[0]
        slack = np.full(m, -1, dtype=np.intp)
        if t % 2:  # unit columns start basic in some rows
            rows = np.flatnonzero(rng.random(m) < 0.5)
            M = np.hstack([M, np.eye(m)[:, rows]])
            slack[rows] = n + np.arange(rows.size)
        if t % 4 == 1:  # a column of no positive entry that lowers the cost
            M = np.hstack([M, -np.abs(rng.integers(0, 2, (m, 1)))])
        c = rng.integers(-3, 4, M.shape[1]).astype(float)
        if t % 5 == 0:
            c = c + 0.25 * rng.standard_normal(c.size)
        yield c, M, rhs, slack, 1e-9, bool(t % 7 == 0)


def beale():
    """Beale's cycling program with slacks: Dantzig's rule stalls at the
    degenerate origin until the stall limit hands over to Bland's rule."""
    M = np.array([[0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
                  [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
    c = np.array([-0.75, 20.0, -0.5, 6.0, 0.0, 0.0, 0.0])
    return c, M, np.array([0.0, 0.0, 1.0]), np.array([4, 5, 6], dtype=np.intp), 1e-9, False


def test_seeded_programs_reach_every_exit_as_before():
    kinds = {"farkas": 0, "entering": 0, "optimal": 0, "dropped": 0, "no_columns": 0, "error": 0}
    switched = []
    for args in [*seeded_programs(), beale()]:
        want = outcome(lambda *a: ref_standard(*a, switched=switched), args)
        assert_same(outcome(_standard, args), want)
        kinds["no_columns"] += args[1].shape[1] == 0
        if isinstance(want, str):
            kinds["error"] += 1
        elif want.farkas is not None:
            kinds["farkas"] += 1
        else:
            kinds["entering" if want.entering is not None else "optimal"] += 1
            kinds["dropped"] += want.kept.size < args[1].shape[0]
    assert min(kinds[k] for k in ("farkas", "entering", "optimal", "dropped", "no_columns")) >= 10, kinds
    assert switched, "no program stalled into Bland's rule"
