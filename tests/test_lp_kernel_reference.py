"""The simplex kernel against the tests' own copy of its loops.

``ref_standard`` and ``ref_run`` (in ``reference_simplex.py``) are the
standard-form core as it stood before the pivot loop lost its
per-iteration gathers.  The kernel must reach the same ``_Std`` byte for
byte (tableau, basis, entering column, Farkas multipliers) on every program
the walk poses and on seeded programs that reach each of the core's exits:
phase 1 dropping dependent rows, an infeasible program, an unbounded one,
and programs with no columns.  The package starts every row on an
artificial; the reference also starts rows on a slack basis, and the seeded
programs reach each exit that way too.  Beale's program, started on its
slacks, pins the pivot loop's switch to Bland's rule after a stall.
"""

import numpy as np
import pytest

import rankwalk
from rankwalk import lp
from rankwalk.lp import LpNumericError, _standard, _Std

from reference_simplex import ref_run, ref_standard
from test_cell_lp_reference import bench_cases


def outcome(fn, args):
    """The result of ``fn`` on copies of ``args``, or the error it raised."""
    try:
        return fn(*(a.copy() if isinstance(a, np.ndarray) else a for a in args))
    except LpNumericError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, _Std)
    for name in _Std._fields:  # the reference's ``kept`` has no counterpart
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
    rounds 0-2 at seeds 0 and 1, recorded as the kernel receives them."""
    programs = []

    def recording(*args):
        programs.append(tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args))
        return _standard(*args)

    monkeypatch.setattr(lp, "_standard", recording)
    cases = bench_cases()
    for workload, rounds in (("walk", 10), ("walk-hard", 3)):
        for seed in (0, 1):
            for rnd in range(rounds):
                for case in cases.build_round(cases.WORKLOADS[workload], seed, rnd):
                    rankwalk.minimize(case.data, case.alpha)
    monkeypatch.undo()
    assert len(programs) >= 1100
    for args in programs:
        assert_same(outcome(_standard, args), outcome(ref_standard, args))


def seeded_programs():
    """Small standard-form programs, min c.y subject to My = rhs, y >= 0,
    each with a slack basis for the reference: dense integer rows, with
    duplicated rows (dependent, dropped by phase 1), unit slack columns on
    some rows, and columns that make it unbounded."""
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
        yield (c, M, rhs, 1e-9, bool(t % 7 == 0)), slack


def beale():
    """Beale's cycling program with slacks: started on them, Dantzig's rule
    stalls at the degenerate origin until the stall limit hands over to
    Bland's rule."""
    M = np.array([[0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
                  [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
    c = np.array([-0.75, 20.0, -0.5, 6.0, 0.0, 0.0, 0.0])
    return (c, M, np.array([0.0, 0.0, 1.0]), 1e-9, False), np.array([4, 5, 6], dtype=np.intp)


def exit_kind(got, rows: int) -> list[str]:
    """The exits of the core that ``got`` took, for a program of ``rows`` rows."""
    if isinstance(got, str):
        return ["error"]
    if got.farkas is not None:
        return ["farkas"]
    return ["entering" if got.entering is not None else "optimal"] + ["dropped"] * (got.T.shape[0] < rows)


def test_seeded_programs_reach_every_exit_as_before():
    """Without a slack basis the kernel and the reference agree byte for
    byte; with one, the reference reaches every exit as well."""
    kinds = {start: dict.fromkeys(("farkas", "entering", "optimal", "dropped", "no_columns", "error"), 0)
             for start in ("artificial", "slack")}
    for args, slack in [*seeded_programs(), beale()]:
        m, n = args[1].shape
        want = outcome(ref_standard, args)
        assert_same(outcome(_standard, args), want)
        for start, got in (("artificial", want), ("slack", outcome(ref_standard, (*args, slack)))):
            for kind in exit_kind(got, m) + ["no_columns"] * (n == 0):
                kinds[start][kind] += 1
    for counts in kinds.values():
        assert min(counts[k] for k in ("farkas", "entering", "optimal", "dropped", "no_columns")) >= 10, kinds


def test_a_stall_hands_over_to_blands_rule(monkeypatch):
    """Beale's tableau with its slack columns basic: ``lp._run`` and
    ``ref_run`` both stall at the origin, switch to Bland's rule and reach
    the same optimal tableau.  Counted as never stalling, ``lp._run`` cycles
    under Dantzig's rule until its pivot budget runs out."""
    (c, M, rhs, tol, bland), slack = beale()
    T, obj = np.column_stack([M, rhs]), np.append(c, 0.0)  # the slacks cost nothing

    def copies():
        return T.copy(), obj.copy(), slack.copy()

    got, want, switched = copies(), copies(), []
    entering = lp._run(*got, tol, bland)
    assert entering == ref_run(*want, tol, bland, switched) and entering is None
    assert switched == [1]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    monkeypatch.setattr(lp, "_DEGEN_TOL", -np.inf)
    with pytest.raises(LpNumericError, match="pivot budget exhausted"):
        lp._run(*copies(), tol, bland)
