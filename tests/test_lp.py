import itertools

import numpy as np
import pytest

from rankwalk import (
    LinearProgram,
    LpError,
    LpInfeasible,
    LpOptimal,
    LpUnbounded,
    active_pairs,
    breakpoints,
    cell_lp,
    find_feasible,
    ggd_minimize,
    improving_direction,
    minimize,
    oracle_minimize,
    residuals,
    solve_certificate,
    solve_lp,
)
from rankwalk.lp import LP_TOL, _check_rows, _solve_by_dual

TOL = 1e-6


def test_single_lower_bound():
    out = solve_lp(LinearProgram([1.0], [([1.0], ">=", 3.0)]))
    assert isinstance(out, LpOptimal)
    assert abs(out.point[0] - 3.0) < TOL
    assert abs(out.value - 3.0) < TOL
    np.testing.assert_allclose(out.dual, [1.0], atol=TOL)


def test_single_upper_bound_unbounded():
    out = solve_lp(LinearProgram([1.0], [([1.0], "<=", 3.0)]))
    assert isinstance(out, LpUnbounded)
    assert out.point[0] <= 3.0 + TOL
    assert out.ray[0] == -1.0  # normalized to unit max-norm


def test_infeasible():
    out = solve_lp(LinearProgram([0.0], [([1.0], ">=", 1.0), ([1.0], "<=", 0.0)]))
    assert isinstance(out, LpInfeasible)


def test_dual_of_active_zero_lower_bounds():
    """">= 0" rows are stored negated so that their slacks start basic; the
    multipliers must still come back with the sign of the rows as posed."""
    out = solve_lp(LinearProgram([1.0], [([1.0], ">=", 0.0)]))
    assert isinstance(out, LpOptimal)
    assert out.point[0] == 0.0 and out.value == 0.0
    np.testing.assert_allclose(out.dual, [1.0], atol=TOL)
    # min x + 2y  s.t.  x >= 0, y >= 0, x + y >= 1: optimum (1, 0), y's bound active
    out = solve_lp(LinearProgram([1.0, 2.0], [
        ([1.0, 0.0], ">=", 0.0),
        ([0.0, 1.0], ">=", 0.0),
        ([1.0, 1.0], ">=", 1.0),
    ]))
    assert isinstance(out, LpOptimal)
    np.testing.assert_allclose(out.point, [1.0, 0.0], atol=TOL)
    np.testing.assert_allclose(out.dual, [0.0, 1.0, 1.0], atol=TOL)


def test_equality_with_sign_constraints():
    # min x + y  s.t.  x + 2y = 4, x >= 0, y >= 0: optimum (0, 2)
    out = solve_lp(LinearProgram([1.0, 1.0], [
        ([1.0, 2.0], "==", 4.0),
        ([1.0, 0.0], ">=", 0.0),
        ([0.0, 1.0], ">=", 0.0),
    ]))
    assert isinstance(out, LpOptimal)
    np.testing.assert_allclose(out.point, [0.0, 2.0], atol=TOL)
    assert abs(out.value - 2.0) < TOL
    np.testing.assert_allclose(out.dual, [0.5, 0.5, 0.0], atol=TOL)


def test_beale_cycling_example():
    """Degenerate program known to cycle under naive pivoting."""
    rows = [
        ([0.25, -60.0, -1.0 / 25.0, 9.0], "<=", 0.0),
        ([0.5, -90.0, -1.0 / 50.0, 3.0], "<=", 0.0),
        ([0.0, 0.0, 1.0, 0.0], "<=", 1.0),
    ]
    rows += [(row, ">=", 0.0) for row in np.eye(4)]
    out = solve_lp(LinearProgram([-0.75, 150.0, -0.02, 6.0], rows))
    assert isinstance(out, LpOptimal)
    assert abs(out.value - (-0.05)) < TOL


def test_find_feasible():
    box = find_feasible([([1.0], ">=", 0.0), ([1.0], "<=", 1.0)])
    assert box is not None and -TOL <= box[0] <= 1.0 + TOL
    assert find_feasible([([1.0], ">=", 1.0), ([-1.0], ">=", 0.0)]) is None
    simplex_face = find_feasible([
        ([1.0, 1.0], "==", 1.0),
        ([1.0, 0.0], ">=", 0.0),
        ([0.0, 1.0], ">=", 0.0),
    ])
    assert simplex_face is not None
    assert abs(simplex_face.sum() - 1.0) < TOL


def test_find_feasible_needs_nvars_or_rows():
    with pytest.raises(LpError):
        find_feasible([])
    assert find_feasible([], nvars=2) is not None


def test_find_feasible_names_a_malformed_first_row():
    """The variable count is read from row 0, which must parse first."""
    for rows, message in [([3.0], "constraint 0 is not a (coeffs, relation, rhs) triple"),
                          ([(["a"], "<=", 0.0)], "constraint 0 must be numeric")]:
        with pytest.raises(LpError) as err:
            find_feasible(rows)
        assert str(err.value) == message


def test_validation_errors():
    with pytest.raises(LpError):
        solve_lp(LinearProgram([], []))
    with pytest.raises(LpError):
        solve_lp(LinearProgram([1.0], [([1.0, 2.0], "<=", 0.0)]))
    with pytest.raises(LpError):
        solve_lp(LinearProgram([1.0], [([1.0], "<", 0.0)]))
    with pytest.raises(LpError):
        solve_lp(LinearProgram([1.0], [([np.inf], "<=", 0.0)]))


LP_TOL_TAKERS = {  # each layer that once took lp_tol (the solvers through their options), at the worked origin
    "minimize": lambda data, alpha, ap, **kw: minimize(data, alpha, **kw),
    "ggd_minimize": lambda data, alpha, ap, **kw: ggd_minimize(data, alpha, **kw),
    "breakpoints": lambda data, alpha, ap, **kw: breakpoints(data, [0.0], [1.0], **kw),
    "cell_lp": lambda data, alpha, ap, **kw: cell_lp(data, alpha, [0, 2, 1], **kw),
    "improving_direction": lambda data, alpha, ap, **kw: improving_direction(data, alpha, ap, **kw),
    "solve_certificate": lambda data, alpha, ap, **kw: solve_certificate(data, alpha, ap, **kw),
    "oracle_minimize": lambda data, alpha, ap, **kw: oracle_minimize(data, alpha, **kw),
    "solve_lp": lambda data, alpha, ap, **kw: solve_lp(LinearProgram([1.0], [([1.0], ">=", 3.0)]), **kw),
}


@pytest.mark.parametrize("layer", sorted(LP_TOL_TAKERS))
@pytest.mark.parametrize("lp_tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_every_layer_checks_lp_tol_alike(worked, layer, lp_tol):
    """The LP tolerance is ``lp.LP_TOL``: every layer that once took one
    refuses an ``lp_tol`` alike, whatever its value, and runs without it."""
    data, alpha = worked
    ap = active_pairs(residuals(data, [0.0]))
    with pytest.raises(TypeError, match="unexpected keyword argument 'lp_tol'$"):
        LP_TOL_TAKERS[layer](data, alpha, ap, lp_tol=lp_tol)
    LP_TOL_TAKERS[layer](data, alpha, ap)


def test_validation_names_the_offending_row():
    ok = ([1.0], "<=", 1.0)
    cases = [
        ([ok, ([1.0, 2.0], "<=", 0.0)], "constraint 1 has 2 coefficients, expected 1"),
        ([([1.0], "<", 0.0)], "constraint 0 has unknown relation '<'"),
        ([ok, ok, ([1.0], "<==", 0.0)], "constraint 2 has unknown relation '<=='"),
        ([ok, ([np.nan], ">=", 0.0)], "constraint 1 must be finite"),
        ([ok, ([1.0], ">=", np.inf)], "constraint 1 must be finite"),
        ([([1.0], "<=")], "constraint 0 is not a (coeffs, relation, rhs) triple"),
        ([ok, ([1.0], "<=", 0.0, 0.0)], "constraint 1 is not a (coeffs, relation, rhs) triple"),
        ([ok, 3.0], "constraint 1 is not a (coeffs, relation, rhs) triple"),
        ([(["a"], "<=", 0.0)], "constraint 0 must be numeric"),
        ([ok, ([1.0], "<=", "x")], "constraint 1 must be numeric"),
        ([ok, ok, ([1.0], ">=", None)], "constraint 2 must be numeric"),
        ([ok, ([1.0], "==", [0.0, 1.0])], "constraint 1 must be numeric"),
        ([ok, ([1.0], np.array(["<=", ">="]), 0.0)],
         "constraint 1 has unknown relation array(['<=', '>='], dtype='<U2')"),
    ]
    for rows, message in cases:
        with pytest.raises(LpError) as err:
            solve_lp(LinearProgram([1.0], rows))
        assert str(err.value) == message
    for objective in (["a"], [1.0, "b"]):
        with pytest.raises(LpError) as err:
            solve_lp(LinearProgram(objective, [ok]))
        assert str(err.value) == "objective must be numeric"
    for objective in ([np.nan], [-np.inf]):
        with pytest.raises(LpError) as err:
            solve_lp(LinearProgram(objective, [ok]))
        assert str(err.value) == "objective must be finite"


def test_determinism():
    rows = [([1.0, 2.0], ">=", 1.0), ([3.0, -1.0], "<=", 4.0), ([1.0, 0.0], ">=", -2.0),
            ([0.0, 1.0], ">=", -2.0)]
    a = solve_lp(LinearProgram([1.0, 1.0], rows))
    b = solve_lp(LinearProgram([1.0, 1.0], rows))
    assert a.point.tobytes() == b.point.tobytes()
    assert a.value == b.value
    assert a.dual.tobytes() == b.dual.tobytes()


def random_boxed_lp(rng):
    nv = int(rng.integers(1, 4))
    bound = float(rng.integers(1, 4))
    rows = []
    for k in range(nv):
        e = np.zeros(nv)
        e[k] = 1.0
        rows.append((e, "<=", bound))
        rows.append((-e, "<=", bound))
    for _ in range(int(rng.integers(0, 11 - 2 * nv))):
        rel = ("<=", ">=", "==")[int(rng.integers(0, 3))]
        rows.append((rng.integers(-3, 4, size=nv).astype(float), rel,
                     float(rng.integers(-3, 4))))
    c = rng.integers(-3, 4, size=nv).astype(float)
    return c, rows


def vertex_minimum(c, rows):
    """Exhaustive oracle: the optimum of a bounded program sits on a vertex,
    i.e. on some n-subset of the constraint boundaries."""
    nv = len(c)
    A = np.array([r[0] for r in rows])
    b = np.array([r[2] for r in rows])
    rels = [r[1] for r in rows]
    best = None
    for subset in itertools.combinations(range(len(rows)), nv):
        sub = A[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        v = np.linalg.solve(sub, b[list(subset)])
        ax = A @ v
        ok = all(
            (rel == "<=" and ax[k] <= b[k] + 1e-7)
            or (rel == ">=" and ax[k] >= b[k] - 1e-7)
            or (rel == "==" and abs(ax[k] - b[k]) <= 1e-7)
            for k, rel in enumerate(rels)
        )
        if ok:
            val = float(c @ v)
            if best is None or val < best:
                best = val
    return best


def test_random_lps_against_vertex_enumeration():
    rng = np.random.default_rng(2024)
    solved = 0
    infeasible = 0
    for _ in range(300):
        c, rows = random_boxed_lp(rng)
        out = solve_lp(LinearProgram(c, rows))
        reference = vertex_minimum(c, rows)
        if reference is None:
            assert isinstance(out, LpInfeasible)
            infeasible += 1
        else:
            assert isinstance(out, LpOptimal)
            assert abs(out.value - reference) <= TOL * (1.0 + abs(reference))
            solved += 1
    assert solved >= 100 and infeasible >= 10  # the generator must exercise both


def test_duality_on_random_optima():
    """Reconstructed multipliers satisfy the stationarity, sign, strong
    duality, and complementary slackness conditions."""
    rng = np.random.default_rng(4097)
    checked = 0
    while checked < 120:
        c, rows = random_boxed_lp(rng)
        out = solve_lp(LinearProgram(c, rows))
        if not isinstance(out, LpOptimal):
            continue
        A = np.array([r[0] for r in rows])
        b = np.array([r[2] for r in rows])
        rels = [r[1] for r in rows]
        y = out.dual
        np.testing.assert_allclose(A.T @ y, c, atol=1e-6)
        assert abs(float(b @ y) - out.value) <= TOL * (1.0 + abs(out.value))
        slack = A @ out.point - b
        for k, rel in enumerate(rels):
            if rel == ">=":
                assert y[k] >= -1e-7
            elif rel == "<=":
                assert y[k] <= 1e-7
            assert abs(y[k] * slack[k]) <= 1e-5
        checked += 1


def test_unbounded_rays_verified():
    rng = np.random.default_rng(99)
    seen = 0
    while seen < 40:
        nv = int(rng.integers(1, 4))
        rows = [(rng.integers(-3, 4, size=nv).astype(float), "<=", float(rng.integers(0, 4)))
                for _ in range(int(rng.integers(1, 5)))]
        c = rng.integers(-3, 4, size=nv).astype(float)
        if not c.any():
            continue
        out = solve_lp(LinearProgram(c, rows))
        if not isinstance(out, LpUnbounded):
            continue
        A = np.array([r[0] for r in rows])
        b = np.array([r[2] for r in rows])
        assert np.all(A @ out.point <= b + TOL)
        assert np.all(A @ out.ray <= TOL)  # ray keeps every row satisfied
        assert float(c @ out.ray) < 0.0
        seen += 1


def test_dual_core_prices_to_what_its_row_check_accepts():
    """The descent master of acceptance gate 1's draw #136 (sweep seed
    20260816, n = 4, p = 3): four cuts on one tie block and the box rows,
    in p + 1 = 4 variables.  Cut row 1 has max entry 28 and right-hand side
    1.9e-8.  Priced with LP_TOL on columns scaled by 28, the dual stopped
    at a point that broke that row by 1.15e-8, past the 1e-8 its row check
    allows, and raised "optimal point failed verification"."""
    r = (3.605551275463989, 1.386750490563073, 5.3923022056375025, 2.781743201320934, 4.273394992497741)
    box = np.array([[-r[0], r[1], 0.0, 0.0], [0.0, -r[2], -r[3], 0.0], [0.0, 0.0, r[4], 0.0]])
    A = np.vstack([[[0.0, 0.0, 0.0, -1.0],
                    [11.0, -28.0, 0.0, -1.0],
                    [11.0, -28.0, -20.0, -1.0],
                    [14.0, -25.0, 5.0, -1.0],
                    [8.0, -13.0, -5.0, -1.0]], box, -box])
    b = np.array([2.85e-08, 1.9e-08, 1.425e-08, 1.14e-08, 9.5e-09] + [1.0] * 6)
    c = np.array([-7.0, 14.0, 2.0, 1.0])
    out = _solve_by_dual(c, A, b)
    assert isinstance(out, LpOptimal)
    assert _check_rows(A, "<=", b, out.point)
    np.testing.assert_allclose(A.T @ out.dual, -c, atol=1e-9)
    assert out.dual[:5].sum() == pytest.approx(1.0)  # the cuts of the one block
