"""Dense two-phase simplex for small linear programs over free variables.

Minimizes c.x subject to rows (a, relation, b) with relation one of
"<=", ">=", "==".  Every variable is free; internally each is split into a
difference of two nonnegative parts.  Outcomes are certified: an optimal point
is re-checked against the original rows, an unbounded verdict carries a
feasible point and a ray that is re-checked to stay feasible and strictly
decrease the objective, and optimal results carry dual multipliers
reconstructed from the final basis.

Phase 1 starts from the slack basis wherever it can.  A row whose slack is
feasible at the origin starts with that slack basic: "<=" rows with a
nonnegative right-hand side, and ">=" rows with a zero right-hand side, which
are stored negated as "<=".  Only rows the origin violates and "==" rows get
an artificial, so a program posed at one of its own feasible points needs
little or no phase 1.

Pivoting is deterministic: largest reduced-cost violation with lowest-index
tie breaks, switching to Bland's rule (lowest index only) once degenerate
steps stall.  Anything the tableau cannot answer cleanly raises
LpNumericError rather than returning a wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

RELATIONS = ("<=", ">=", "==")

_PIVOT_TOL = 1e-10
_DEGEN_TOL = 1e-12


class LpError(Exception):
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
    c = np.array(prob.objective, dtype=float).ravel()
    nv = c.shape[0]
    if nv < 1:
        raise LpError("need at least one variable")
    if not np.isfinite(c).all():
        raise LpError("objective must be finite")
    cons = tuple(prob.constraints)
    try:
        coeffs, rels, rhs = zip(*cons)
        A = np.array(coeffs, dtype=float).reshape(len(cons), -1)
        b = np.array(rhs, dtype=float)
        stacked = (all(len(con) == 3 for con in cons) and A.shape[1] == nv and b.shape == (len(cons),)
                   and set(rels) <= set(RELATIONS) and bool(np.isfinite(A).all()) and bool(np.isfinite(b).all()))
    except (TypeError, ValueError):  # ragged or malformed: let the row-by-row pass name the row
        stacked = False
    if not stacked:
        return (c, *_validate_rows(cons, nv))
    return c, A, np.array(rels, dtype="<U2"), b


def _validate_rows(cons, nv: int):
    """Row by row, to name the first malformed constraint."""
    rows = []
    for k, con in enumerate(cons):
        try:
            coeffs, rel, rhs = con
        except (TypeError, ValueError):
            raise LpError(f"constraint {k} is not a (coeffs, relation, rhs) triple") from None
        a = np.array(coeffs, dtype=float).ravel()
        if a.shape[0] != nv:
            raise LpError(f"constraint {k} has {a.shape[0]} coefficients, expected {nv}")
        if rel not in RELATIONS:
            raise LpError(f"constraint {k} has unknown relation {rel!r}")
        rhs = float(rhs)
        if not (np.isfinite(a).all() and np.isfinite(rhs)):
            raise LpError(f"constraint {k} must be finite")
        rows.append((a, rel, rhs))
    m = len(rows)
    A = np.array([r[0] for r in rows]) if m else np.zeros((0, nv))
    rels = np.array([r[1] for r in rows], dtype="<U2")
    b = np.array([r[2] for r in rows]) if m else np.zeros(0)
    return A, rels, b


def _reduced_row(T: np.ndarray, basis: np.ndarray, cvec: np.ndarray) -> np.ndarray:
    cb = cvec[basis]
    live = cb != 0.0
    return np.append(cvec, 0.0) - cb[live] @ T[live]


def _pivot(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    obj -= obj[j] * T[r]
    T[:, j] = 0.0
    T[r, j] = 1.0
    obj[j] = 0.0
    basis[r] = j


def _run(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, lp_tol: float, bland: bool):
    """Pivot until optimal or unbounded.  Returns None or the entering column
    index whose ray is unbounded."""
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
            # Entries below the pivot tolerance are treated as nonpositive;
            # the unbounded verdict is re-verified against the original rows.
            return int(j)
        ratios = T[elig, -1] / col[elig]
        best = ratios.min()
        ties = elig[ratios <= best + 1e-12 * (1.0 + abs(best))]
        r = int(ties[np.argmin(basis[ties])])
        if best < _DEGEN_TOL:
            stall += 1
            if stall > stall_limit:
                bland = True
        else:
            stall = 0
        _pivot(T, obj, basis, r, int(j))
    raise LpNumericError("pivot budget exhausted")


def _point_from(T: np.ndarray, basis: np.ndarray, ncols: int, nv: int) -> np.ndarray:
    xstd = np.zeros(ncols)
    xstd[basis] = T[:, -1]
    return xstd[:nv] - xstd[nv : 2 * nv]


def _check_rows(A, rels, b, v, lp_tol, homogeneous: bool) -> bool:
    lhs = A @ v
    rhs = np.zeros_like(b) if homogeneous else b
    tol = 10.0 * lp_tol * (1.0 + np.abs(rhs) + np.abs(A) @ np.abs(v))
    bad = np.where(rels == "<=", lhs > rhs + tol,
                   np.where(rels == ">=", lhs < rhs - tol, np.abs(lhs - rhs) > tol))
    return not bad.any()


def _simplex_once(c, A_raw, rels_raw, b_raw, lp_tol, bland) -> LpOutcome:
    m, nv = A_raw.shape

    scale = np.maximum(1.0, np.abs(A_raw).max(axis=1))
    A = A_raw / scale[:, None]
    b = b_raw / scale
    # Rows the origin violates are negated, and so are ">=" rows with a zero
    # right-hand side: stored as "<=", their slack starts basic.
    flip = (b < 0.0) | ((b == 0.0) & (rels_raw == ">="))
    A[flip] = -A[flip]
    b[flip] = -b[flip]
    sign = np.where(flip, -1.0, 1.0)
    rels = rels_raw.copy()
    rels[flip & (rels_raw == "<=")] = ">="
    rels[flip & (rels_raw == ">=")] = "<="

    slack_rows = np.flatnonzero(rels != "==")
    ns = slack_rows.size
    n_real = 2 * nv + ns
    art_rows = np.flatnonzero(rels != "<=")
    nart = art_rows.size

    cols = np.zeros((m, n_real + nart))
    cols[:, :nv] = A
    cols[:, nv : 2 * nv] = -A
    basis = np.full(m, -1, dtype=np.intp)
    upper = rels[slack_rows] == "<="
    cols[slack_rows, 2 * nv + np.arange(ns)] = np.where(upper, 1.0, -1.0)
    basis[slack_rows[upper]] = 2 * nv + np.flatnonzero(upper)
    cols[art_rows, n_real + np.arange(nart)] = 1.0
    basis[art_rows] = n_real + np.arange(nart)

    A_std = cols[:, :n_real].copy()  # pristine, for dual reconstruction
    T = np.hstack([cols, b[:, None]])
    kept = np.arange(m)

    if nart:
        c1 = np.zeros(n_real + nart)
        c1[n_real:] = 1.0
        obj1 = _reduced_row(T, basis, c1)
        if _run(T, obj1, basis, lp_tol, bland) is not None:
            raise LpNumericError("phase 1 reported unbounded")
        feas_tol = 10.0 * lp_tol * (1.0 + (abs(b).max() if m else 0.0))
        if -obj1[-1] > feas_tol:
            return LpInfeasible()
        # Drive leftover artificials out of the basis; rows that cannot be
        # pivoted on are dependent and get dropped.
        drop = []
        for r in np.flatnonzero(basis >= n_real).tolist():
            j = int(np.argmax(np.abs(T[r, :n_real])))
            if abs(T[r, j]) > 1e-9:
                _pivot(T, obj1, basis, r, j)
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
        T = np.hstack([T[:, :n_real], T[:, -1:]])

    c2 = np.concatenate([c, -c, np.zeros(ns)])
    obj2 = _reduced_row(T, basis, c2)
    j_free = _run(T, obj2, basis, lp_tol, bland)
    point = _point_from(T, basis, n_real, nv)

    if j_free is not None:
        ray_std = np.zeros(n_real)
        ray_std[j_free] = 1.0
        ray_std[basis] = -T[:, j_free]
        ray = ray_std[:nv] - ray_std[nv : 2 * nv]
        top = np.abs(ray).max()
        if top <= 0.0:
            raise LpNumericError("unbounded ray vanished on the original variables")
        ray = ray / top
        if float(c @ ray) >= 0.0:
            raise LpNumericError("unbounded ray does not decrease the objective")
        if not (_check_rows(A_raw, rels_raw, b_raw, point, lp_tol, False)
                and _check_rows(A_raw, rels_raw, b_raw, ray, lp_tol, True)):
            raise LpNumericError("unbounded certificate failed verification")
        return LpUnbounded(point, ray)

    if not _check_rows(A_raw, rels_raw, b_raw, point, lp_tol, False):
        raise LpNumericError("optimal point failed feasibility verification")
    value = float(c @ point)

    dual = np.zeros(m)
    if kept.size:
        B = A_std[kept][:, basis]
        cb = c2[basis]
        try:
            y = np.linalg.solve(B.T, cb)
        except np.linalg.LinAlgError:
            y = np.linalg.lstsq(B.T, cb, rcond=None)[0]
        if float(np.abs(B.T @ y - cb).max()) > 1e-7 * (1.0 + float(np.abs(cb).max())):
            raise LpNumericError("dual reconstruction failed on the final basis")
        dual[kept] = sign[kept] * y / scale[kept]
    return LpOptimal(point, value, dual)


def solve_lp(prob: LinearProgram, lp_tol: float = 1e-9) -> LpOutcome:
    """Solve the program, retrying once under Bland's rule before giving up."""
    if not (np.isfinite(lp_tol) and lp_tol > 0.0):
        raise LpError("lp_tol must be finite and positive")
    c, A, rels, b = _validate(prob)
    try:
        return _simplex_once(c, A, rels, b, lp_tol, bland=False)
    except LpNumericError:
        return _simplex_once(c, A, rels, b, lp_tol, bland=True)


def find_feasible(constraints: Sequence[tuple], nvars: int | None = None,
                  lp_tol: float = 1e-9) -> np.ndarray | None:
    """A point satisfying the rows, or None when the system is infeasible."""
    if nvars is None:
        if not constraints:
            raise LpError("cannot infer the variable count from zero constraints")
        nvars = len(constraints[0][0])
    out = solve_lp(LinearProgram(np.zeros(nvars), tuple(constraints)), lp_tol=lp_tol)
    if isinstance(out, LpInfeasible):
        return None
    if isinstance(out, LpUnbounded):  # cannot happen with a zero objective
        raise LpNumericError("feasibility probe reported unbounded")
    return out.point
