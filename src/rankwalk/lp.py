"""Dense two-phase simplex for small linear programs.

The core solves standard form, min c.y subject to My = rhs and y >= 0 with
rhs >= 0, every row starting on an artificial in phase 1.

One driver poses programs for it.  ``_solve_by_dual`` minimizes c.v over
free v subject to Av <= b, with A tall (m rows, p columns, m >> p), through
its dual: min b.y subject to A^T y = -c and y >= 0, p rows and m columns,
so the tableau is p x m and p artificials enter.  The primal point is the
p x p solve of the basic rows; an infeasible dual is an unbounded primal,
whose ray is the Farkas vector of phase 1.  A caller may name rows to try
first as the dual's basis (``woa.cell_lp`` names the rows tied up to
rounding at its point, after a step those where the walk's ray landed):
their multipliers and vertex are solved directly, and the simplex runs
only when those fail the same checks as its own answer.  Each
column is row j of A over max(1, max|A_j|), priced to a tolerance
that keeps every row within what the final check allows.  The driver
certifies what it returns: an optimal point and its multipliers are
re-checked against the original rows and for a zero duality gap, an
unbounded verdict carries a feasible point and a ray re-checked to stay
feasible and strictly decrease the objective, and an infeasible one a
checked Farkas ray of the dual.  Every program of the package has this
shape: ``woa.cell_lp`` (a region's n - 1 rows in p variables),
``certificate._descent_search`` (the master's cuts and box rows in
p + 1 variables whatever the number of tie blocks, its multipliers read
from y), ``oracle.oracle_minimize`` (the envelope program's n! rows in p + 1) and
``oracle.enumerate_nonempty_cells`` (each region's rows, with a zero
objective, so an empty region is its ``LpInfeasible``).

``solve_lp`` is the public front end, behind ``find_feasible`` too; no
layer of the package poses a program to it.  It validates a
``LinearProgram`` of rows (a, relation, b), relation one of "<=", ">=",
"==", row by row into arrays, so that an error names the first malformed
constraint.  It then poses every row as "<=" for the driver (">=" rows
negated, "==" rows as a pair of opposite "<=" rows) and maps the
multipliers back to the rows as given.

One tolerance, ``LP_TOL``, serves every program: ``_solve_by_dual``
prices to what it allows and checks each verdict against it, and the
descent search and the ray read it too.  No caller sets another.

Pivoting is deterministic: largest reduced-cost violation with lowest-index
tie breaks, switching to Bland's rule (lowest index only) once degenerate
steps stall; among rows tied in the ratio test, the one whose basic column
has the lowest index leaves.  The tableaus have few rows (p for the cell
LP, p + 1 for the envelope program and for the master), so each pivot
costs a handful of array operations and the ratio test runs over
Python floats.  Phase 1 answers only feasible or infeasible; a verdict
leaves ``_solve_by_dual`` only once its check passes, else LpNumericError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

RELATIONS = ("<=", ">=", "==")

LP_TOL = 1e-9  # pricing and verification tolerance of every program
_PIVOT_TOL = 1e-10
_DEGEN_TOL = 1e-12


class LpError(ValueError):
    """Malformed linear program."""


class LpNumericError(LpError):
    """The tableau degraded numerically; refusing to report a verdict."""


@dataclass(frozen=True)
class LinearProgram:
    """Objective vector plus rows of (coefficients, relation, rhs)."""

    objective: Sequence[float]
    constraints: Sequence[tuple]


@dataclass(frozen=True)
class LpOptimal:
    point: np.ndarray
    value: float
    dual: np.ndarray


@dataclass(frozen=True)
class LpUnbounded:
    point: np.ndarray
    ray: np.ndarray


@dataclass(frozen=True)
class LpInfeasible:
    pass


LpOutcome = LpOptimal | LpUnbounded | LpInfeasible


def _validate(prob: LinearProgram):
    """The program as arrays (c, A, relations, b), row by row so that an
    error names the first malformed constraint."""
    try:
        c = np.array(prob.objective, dtype=float).ravel()
    except (TypeError, ValueError):
        raise LpError("objective must be numeric") from None
    nv = c.shape[0]
    if nv < 1:
        raise LpError("need at least one variable")
    if not np.isfinite(c).all():
        raise LpError("objective must be finite")
    rows = []
    for k, con in enumerate(prob.constraints):
        a, rel, rhs = _row(k, con)
        if a.shape[0] != nv:
            raise LpError(f"constraint {k} has {a.shape[0]} coefficients, expected {nv}")
        if not isinstance(rel, str) or rel not in RELATIONS:
            raise LpError(f"constraint {k} has unknown relation {rel!r}")
        if not (np.isfinite(a).all() and np.isfinite(rhs)):
            raise LpError(f"constraint {k} must be finite")
        rows.append((a, rel, rhs))
    m = len(rows)
    A = np.array([r[0] for r in rows]) if m else np.zeros((0, nv))
    rels = np.array([r[1] for r in rows], dtype="<U2")
    b = np.array([r[2] for r in rows]) if m else np.zeros(0)
    return c, A, rels, b


def _row(k: int, con):
    """Constraint k as (coefficients, relation, rhs), numbers as floats."""
    try:
        coeffs, rel, rhs = con
    except (TypeError, ValueError):
        raise LpError(f"constraint {k} is not a (coeffs, relation, rhs) triple") from None
    try:
        return np.array(coeffs, dtype=float).ravel(), rel, float(rhs)
    except (TypeError, ValueError):
        raise LpError(f"constraint {k} must be numeric") from None


def _reduced_row(T: np.ndarray, basis: np.ndarray, cvec: np.ndarray) -> np.ndarray:
    cb = cvec[basis]
    live = cb != 0.0
    obj = np.zeros(T.shape[1])
    obj[:-1] = cvec
    obj -= cb[live] @ T[live]
    return obj


def _pivot(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= col[:, None] * T[r]
    obj -= obj[j] * T[r]
    T[:, j] = 0.0
    T[r, j] = 1.0
    obj[j] = 0.0
    basis[r] = j


def _run(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, price_tol: float, bland: bool):
    """Pivot until optimal or unbounded.  Returns None or the entering column
    index whose ray is unbounded."""
    m, ncols1 = T.shape
    rc = obj[:-1]  # a view: pivots update obj in place
    stall = 0
    stall_limit = 50 * max(1, m)
    if rc.size == 0:
        return None
    for _ in range(5000 + 60 * m + 10 * ncols1):
        if bland:
            neg = rc < -price_tol
            j = int(neg.argmax())
            if not neg[j]:
                return None
        else:
            j = int(rc.argmin())
            if not rc[j] < -price_tol:
                return None
        # The ratio test over Python floats: the tableaus here have few rows.
        col = T[:, j].tolist()
        elig = [i for i, a in enumerate(col) if a > _PIVOT_TOL]
        if not elig:
            # Entries below the pivot tolerance are treated as nonpositive;
            # the unbounded verdict is re-verified against the original rows.
            return j
        rhs = T[:, -1].tolist()
        ratios = [rhs[i] / col[i] for i in elig]
        best = min(ratios)
        cut = best + 1e-12 * (1.0 + abs(best))
        ties = [i for i, q in zip(elig, ratios) if q <= cut]
        r = ties[0] if len(ties) == 1 else min(ties, key=basis.__getitem__)
        if best < _DEGEN_TOL:
            stall += 1
            if stall > stall_limit:
                bland = True
        else:
            stall = 0
        _pivot(T, obj, basis, r, j)
    raise LpNumericError("pivot budget exhausted")


class _Std(NamedTuple):
    """Where the standard-form core stops.  A feasible program gives its
    final tableau ``T`` over the real columns (right-hand side last), with
    one row per row phase 1 kept (it drops dependent ones), the basic column
    of each of those rows, and the entering column of an unbounded ray, if
    any.  An infeasible one gives only ``farkas``, phase 1's multipliers."""

    T: np.ndarray | None = None
    basis: np.ndarray | None = None
    entering: int | None = None
    farkas: np.ndarray | None = None


def _standard(c, M, rhs, price_tol: float, bland: bool) -> _Std:
    """Minimize c.y subject to My = rhs and y >= 0, where M has at least one
    row and rhs >= 0, pricing to ``price_tol``.  Phase 1 minimizes the sum
    of one artificial per row, which is bounded below by 0, so it only
    decides feasibility; the caller checks every verdict."""
    m, N = M.shape
    art = N + np.arange(m)
    T = np.zeros((m, N + m + 1))
    T[:, :N] = M
    T[np.arange(m), art] = 1.0
    T[:, -1] = rhs
    basis = art.copy()

    c1 = np.zeros(N + m)
    c1[N:] = 1.0
    obj1 = _reduced_row(T, basis, c1)
    _run(T, obj1, basis, price_tol, bland)
    feas_tol = 10.0 * price_tol * (1.0 + abs(rhs).max())
    if -obj1[-1] > feas_tol:
        return _Std(farkas=c1[art] - obj1[art])
    # Drive leftover artificials out of the basis; rows that cannot be
    # pivoted on are dependent and get dropped.
    drop = []
    for r in np.flatnonzero(basis >= N).tolist():
        row = np.abs(T[r, :N])
        if row.size and row.max() > 1e-9:
            _pivot(T, obj1, basis, r, int(row.argmax()))
        else:
            drop.append(r)
    if drop:
        T = np.delete(T, drop, axis=0)
        basis = np.delete(basis, drop)
    T = np.concatenate([T[:, :N], np.maximum(T[:, -1:], 0.0)], axis=1)  # drop the artificials

    obj2 = _reduced_row(T, basis, c)
    return _Std(T, basis, _run(T, obj2, basis, price_tol, bland))


def _check_rows(A, rel, b, v, absA=None) -> bool:
    """Whether A v (rel) b holds row by row within the LP tolerance, b an
    array or a scalar; never where that tolerance overflows.  ``rel`` is
    "<=" or "==" for every row; ``absA`` is |A|, computed here when not given."""
    lhs = A @ v
    tol = 10.0 * LP_TOL * (1.0 + np.abs(b) + (np.abs(A) if absA is None else absA) @ np.abs(v))
    bad = lhs > b + tol if rel == "<=" else np.abs(lhs - b) > tol
    return not bad.any() and bool(np.isfinite(tol).all())


def _unit_ray(c, ray) -> np.ndarray:
    """An unbounded ray scaled to unit max-norm, checked to be nonzero and
    to decrease c.x."""
    top = np.abs(ray).max()
    if top <= 0.0:
        raise LpNumericError("unbounded ray vanished on the original variables")
    ray = ray / top
    if float(c @ ray) >= 0.0:
        raise LpNumericError("unbounded ray does not decrease the objective")
    return ray


def solve_lp(prob: LinearProgram) -> LpOutcome:
    """Solve the program on the dual core, every row as "<=": ">=" rows
    negated, and each "==" row posed twice, as itself and negated.  An
    optimum's ``dual`` holds one multiplier per row as posed, with
    c = A^T dual, >= 0 on ">=" rows and <= 0 on "<=" rows."""
    c, A, rels, b = _validate(prob)
    sign = np.where(rels == ">=", -1.0, 1.0)
    eq = np.flatnonzero(rels == "==")
    out = _solve_by_dual(c, np.vstack([sign[:, None] * A, -A[eq]]), np.concatenate([sign * b, -b[eq]]))
    if not isinstance(out, LpOptimal):
        return out
    dual = -sign * out.dual[:b.size]
    dual[eq] += out.dual[b.size:]
    return LpOptimal(out.point, out.value, dual)


def _solve_by_dual(c, A, b, start=None) -> LpOutcome:
    """Minimize c.v over free v subject to Av <= b, through the dual
    min b.y subject to A^T y = -c and y >= 0 (see the module docstring),
    to ``LP_TOL``.  An optimum carries the dual's y as its ``dual``, with
    A^T y = -c.  ``start``, when given, holds row indices tried first as
    the dual's basis (``_from_rows``); the simplex runs only when they give
    no checked optimum."""
    if start is not None:
        out = _from_rows(c, A, b, start)
        if out is not None:
            return out
    try:
        return _dual_once(c, A, b, bland=False)
    except LpNumericError:
        return _dual_once(c, A, b, bland=True)


def _dual_once(c, A, b, bland) -> LpOutcome:
    nv = A.shape[1]
    # Column j of the dual is row j of A over max(1, max|A_j|); y_j comes
    # back divided by the same factor.
    absA = np.abs(A)
    scale = np.maximum(1.0, absA.max(axis=1))
    sign = np.where(c > 0.0, -1.0, 1.0)  # dual rows negated to a right-hand side |c|
    M = (A / scale[:, None]).T * sign[:, None]
    cost = b / scale
    # Column j's reduced cost is row j's slack divided by scale[j], so pricing
    # to ``price_tol`` leaves row j broken by at most price_tol * scale[j]:
    # within the 10 * LP_TOL that ``_check_rows`` allows every row.
    price_tol = min(LP_TOL, 10.0 * LP_TOL / scale.max(initial=1.0))
    std = _standard(cost, M, np.abs(c), price_tol, bland)

    if std.farkas is not None:  # no y: the primal is unbounded along the Farkas vector
        ray = _unit_ray(c, sign * std.farkas)
        if not _check_rows(A, "<=", 0.0, ray, absA):
            raise LpNumericError("unbounded certificate failed verification")
        point = np.zeros(nv)
        if not _check_rows(A, "<=", b, point, absA):
            # The multipliers of min b.y subject to A^T y = 0, y >= 0 are a
            # feasible point when it is bounded; when it is not, nothing is.
            std = _standard(cost, M, np.zeros(nv), price_tol, bland)
            if std.entering is not None:
                return _infeasible(A, b, scale, std)
            point = _basic_rows_point(A, b, std.basis)
            if not _check_rows(A, "<=", b, point, absA):
                raise LpNumericError("unbounded certificate failed verification")
        return LpUnbounded(point, ray)

    if std.entering is not None:  # b.y unbounded below: no v satisfies the rows
        return _infeasible(A, b, scale, std)
    out = _checked_optimum(c, A, b, std.basis, std.T[:, -1] / scale[std.basis], absA)
    if out is None:
        raise LpNumericError("optimal point failed verification")
    return out


def _checked_optimum(c, A, b, rows, y_rows, absA=None) -> LpOptimal | None:
    """The optimum whose dual basis is ``rows`` with multipliers ``y_rows``
    >= 0 on them, or None.  Three checks, each within the LP tolerance and
    each made only when the one before holds: A^T y = -c over the rows,
    the only ones y weighs, in O(p |rows|); then the vertex, solved from
    the rows by ``_basic_rows_point``, against every row of A; then a zero
    duality gap.  ``absA`` is |A|, computed when needed if not given."""
    if not _check_rows(A[rows].T, "==", -c, y_rows):
        return None
    point = _basic_rows_point(A, b, rows)
    value = float(c @ point)
    gap_tol = 10.0 * LP_TOL * (1.0 + np.abs(c) @ np.abs(point) + np.abs(b[rows]) @ y_rows)
    if not (_check_rows(A, "<=", b, point, absA) and abs(value + float(b[rows] @ y_rows)) <= gap_tol):
        return None
    y = np.zeros(A.shape[0])
    y[rows] = y_rows
    return LpOptimal(point, value, y)


def _from_rows(c, A, b, rows) -> LpOptimal | None:
    """The optimum whose dual basis is ``rows``, or None.  The rows may be
    fewer or more than p: y solves A_rows^T y = -c by ``_basic_rows_point``
    (least squares unless square and regular), and the optimum must have
    y >= 0 and pass ``_checked_optimum``.  Both test y on the tried rows
    alone before the vertex is solved or another row is read, so a try
    that fails there costs O(p |rows|).  No pivot is made."""
    if rows.size == 0:
        return None
    y_rows = _basic_rows_point(A[rows].T, -c, slice(None))
    if not (y_rows >= 0.0).all():
        return None
    return _checked_optimum(c, A, b, rows, y_rows)


def _basic_rows_point(A, b, basis) -> np.ndarray:
    """The v on which the rows ``basis`` of A (indices, or a slice) hold with
    equality: a solve when they are square and regular, least squares
    otherwise (phase 1 dropped rows, a singular basis, or other than p rows
    to start from)."""
    rows = A[basis]
    if rows.shape[0] == rows.shape[1]:
        try:
            return np.linalg.solve(rows, b[basis])
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(rows, b[basis], rcond=None)[0]


def _infeasible(A, b, scale, std: _Std) -> LpInfeasible:
    """Check the dual's unbounded ray r (r >= 0, A^T r = 0, b.r < 0), which
    proves that no v satisfies Av <= b."""
    r = np.zeros(A.shape[0])
    r[std.entering] = 1.0
    r[std.basis] = -std.T[:, std.entering]
    r = np.maximum(r, 0.0) / scale
    if not (float(b @ r) < 0.0 and _check_rows(A.T, "==", 0.0, r)):
        raise LpNumericError("infeasibility certificate failed verification")
    return LpInfeasible()


def find_feasible(constraints: Sequence[tuple], nvars: int | None = None) -> np.ndarray | None:
    """A point satisfying the rows, or None when the system is infeasible."""
    if nvars is None:
        if not constraints:
            raise LpError("cannot infer the variable count from zero constraints")
        nvars = _row(0, constraints[0])[0].shape[0]
    out = solve_lp(LinearProgram(np.zeros(nvars), tuple(constraints)))
    if isinstance(out, LpInfeasible):
        return None
    if isinstance(out, LpUnbounded):  # cannot happen with a zero objective
        raise LpNumericError("feasibility probe reported unbounded")
    return out.point
