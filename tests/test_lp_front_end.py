"""``solve_lp``, the front end that poses every row as "<=" for the dual
core, against ``ref_solve_lp``, the free-variable simplex kept in the
tests: the same verdict on every program, and optimal values within
10 * lp_tol * (1 + |f|)."""

import numpy as np

from rankwalk import LinearProgram, LpInfeasible, LpOptimal, find_feasible, solve_lp
from rankwalk.lp import LP_TOL

from reference_simplex import ref_solve_lp
from test_cell_lp_reference import master_programs
from test_lp import random_boxed_lp


def assert_agrees(prob):
    got, want = solve_lp(prob), ref_solve_lp(prob, LP_TOL)
    assert type(got) is type(want)
    if isinstance(want, LpOptimal):
        assert abs(got.value - want.value) <= 10.0 * LP_TOL * (1.0 + abs(want.value))
    return got


def test_descent_masters_agree_with_the_reference():
    verdicts = [type(assert_agrees(prob)) for prob, *_ in master_programs()]
    assert verdicts == [LpOptimal] * 291


def test_random_boxed_programs_agree_with_the_reference():
    rng = np.random.default_rng(8191)
    seen = {LpOptimal: 0, LpInfeasible: 0}
    for _ in range(300):
        c, rows = random_boxed_lp(rng)
        seen[type(assert_agrees(LinearProgram(c, rows)))] += 1
    assert seen[LpOptimal] >= 100 and seen[LpInfeasible] >= 10, seen


def test_feasible_points_without_inequalities():
    assert find_feasible([], nvars=2).shape == (2,)
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    b = np.array([3.0, 1.0])
    point = find_feasible(list(zip(A, ("==", "=="), b)))
    np.testing.assert_allclose(A @ point, b, atol=1e-9)
    assert find_feasible([([1.0], "==", 1.0), ([1.0], "==", 2.0)]) is None
