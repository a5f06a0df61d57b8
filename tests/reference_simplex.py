"""The free-variable simplex, kept as an independent reference.

``ref_solve_lp`` solves a ``LinearProgram`` the way ``solve_lp`` did before
it became a front end to the dual core: it splits each variable into a
difference of two nonnegative parts, gives each inequality a slack and
hands the (m rows, 2p + slacks columns) tableau to the shared standard-form
kernel ``rankwalk.lp._standard``.  A row whose slack is feasible at the
origin starts with that slack basic: "<=" rows with a nonnegative
right-hand side, and ">=" rows with a zero right-hand side, which are
stored negated as "<=".  An optimum is re-checked against the rows as
posed, and its multipliers are reconstructed from the final basis, one per
row, with c = A^T dual, >= 0 on ">=" rows and <= 0 on "<=" rows.  An
unbounded verdict carries a point and a ray, both re-checked.  It retries
once under Bland's rule before giving up.

It shares no code with ``solve_lp`` past validation and the kernel, so the
tests that compare them (the cell LP, the oracle's envelope program, the
LAD and Jaeckel references, and the recorded descent masters) compare two
different programs of the same problem.
"""

import numpy as np

from rankwalk.lp import (
    LpInfeasible,
    LpNumericError,
    LpOptimal,
    LpUnbounded,
    _standard,
    _unit_ray,
    _validate,
)


def check_rows(A, rels, b, v, lp_tol, homogeneous: bool) -> bool:
    """Whether A v (rel) b holds row by row within the LP tolerance, or
    A v (rel) 0 when ``homogeneous``; ``rels`` are the masks (le, ge) of the
    "<=" and ">=" rows, the rest "=="."""
    lhs = A @ v
    rhs = 0.0 if homogeneous else b
    tol = 10.0 * lp_tol * (1.0 + np.abs(rhs) + np.abs(A) @ np.abs(v))
    le, ge = rels
    bad = np.where(le, lhs > rhs + tol, np.where(ge, lhs < rhs - tol, np.abs(lhs - rhs) > tol))
    return not bad.any()


def simplex_once(c, A_raw, rels_raw, b_raw, lp_tol, bland):
    m, nv = A_raw.shape
    le, ge = rels = (rels_raw == "<=", rels_raw == ">=")

    scale = np.maximum(1.0, np.abs(A_raw).max(axis=1))
    b = b_raw / scale
    # Rows the origin violates are negated, and so are ">=" rows with a zero
    # right-hand side: stored as "<=", their slack starts basic.
    flip = (b < 0.0) | ((b == 0.0) & ge)
    sign = np.where(flip, -1.0, 1.0)
    b *= sign
    slack_rows = np.flatnonzero(le | ge)
    upper = np.where(flip, ge, le)[slack_rows]  # stored as "<="
    ns = slack_rows.size
    n_real = 2 * nv + ns
    M = np.zeros((m, n_real))
    A = np.divide(A_raw, scale[:, None], out=M[:, :nv])
    A *= sign[:, None]
    np.negative(A, out=M[:, nv : 2 * nv])
    M[slack_rows, 2 * nv + np.arange(ns)] = np.where(upper, 1.0, -1.0)
    slack = np.full(m, -1, dtype=np.intp)
    slack[slack_rows[upper]] = 2 * nv + np.flatnonzero(upper)
    c2 = np.concatenate([c, -c, np.zeros(ns)])

    std = _standard(c2, M, b, slack, lp_tol, bland)
    if std.farkas is not None:
        return LpInfeasible()
    T, basis, kept = std.T, std.basis, std.kept
    xstd = np.zeros(n_real)
    xstd[basis] = T[:, -1]
    point = xstd[:nv] - xstd[nv : 2 * nv]

    if std.entering is not None:
        ray_std = np.zeros(n_real)
        ray_std[std.entering] = 1.0
        ray_std[basis] = -T[:, std.entering]
        ray = _unit_ray(c, ray_std[:nv] - ray_std[nv : 2 * nv])
        if not (check_rows(A_raw, rels, b_raw, point, lp_tol, False)
                and check_rows(A_raw, rels, b_raw, ray, lp_tol, True)):
            raise LpNumericError("unbounded certificate failed verification")
        return LpUnbounded(point, ray)

    if not check_rows(A_raw, rels, b_raw, point, lp_tol, False):
        raise LpNumericError("optimal point failed feasibility verification")
    value = float(c @ point)

    dual = np.zeros(m)
    if kept.size:
        B = M[kept[:, None], basis]
        cb = c2[basis]
        try:
            y = np.linalg.solve(B.T, cb)
        except np.linalg.LinAlgError:
            y = np.linalg.lstsq(B.T, cb, rcond=None)[0]
        if float(np.abs(B.T @ y - cb).max()) > 1e-7 * (1.0 + float(np.abs(cb).max())):
            raise LpNumericError("dual reconstruction failed on the final basis")
        dual[kept] = sign[kept] * y / scale[kept]
    return LpOptimal(point, value, dual)


def ref_solve_lp(prob, lp_tol: float = 1e-9):
    """Solve the program, retrying once under Bland's rule before giving up."""
    rows = _validate(prob)
    try:
        return simplex_once(*rows, lp_tol, bland=False)
    except LpNumericError:
        return simplex_once(*rows, lp_tol, bland=True)
