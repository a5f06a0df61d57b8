"""The free-variable simplex, kept as an independent reference.

``ref_solve_lp`` solves a ``LinearProgram`` the way ``solve_lp`` did before
it became a front end to the dual core: it splits each variable into a
difference of two nonnegative parts, gives each inequality a slack and
hands the (m rows, 2p + slacks columns) tableau to ``ref_standard``.  A row
whose slack is feasible at the origin starts with that slack basic: "<="
rows with a nonnegative right-hand side, and ">=" rows with a zero
right-hand side, which are stored negated as "<=".  An optimum is
re-checked against the rows as posed, and its multipliers are
reconstructed from the final basis, one per row phase 1 kept, with
c = A^T dual, >= 0 on ">=" rows and <= 0 on "<=" rows.  An unbounded
verdict carries a point and a ray, both re-checked.  It retries once under
Bland's rule before giving up.

``ref_standard`` and ``ref_run`` are the tests' own copy of the
standard-form kernel, as it stood before the package's pivot loop lost its
per-iteration gathers: every candidate column and eligible row gathered
into index arrays, the ratio test taken over the gathered rows and the
objective row built with ``np.append``.  Unlike ``rankwalk.lp._standard``
the copy starts rows on a partial slack basis and reports the rows phase 1
kept.  ``tests/test_lp_kernel_reference.py`` holds the package's kernel to
it byte for byte.

The reference runs on that copy and shares only ``_validate`` and
``_unit_ray`` with ``src/`` (and the kernel's pivot tolerances), so the
tests that compare it with ``solve_lp`` (the cell LP, the oracle's envelope
program, the LAD and Jaeckel references, and the recorded descent masters)
compare two different programs of the same problem.
"""

from typing import NamedTuple

import numpy as np

from rankwalk.lp import (
    _DEGEN_TOL,
    _PIVOT_TOL,
    LpInfeasible,
    LpNumericError,
    LpOptimal,
    LpUnbounded,
    _unit_ray,
    _validate,
)


class RefStd(NamedTuple):
    """Where ``ref_standard`` stops: ``rankwalk.lp._Std``'s fields, and
    ``kept``, the original rows that the rows of ``T`` are."""

    T: np.ndarray | None = None
    basis: np.ndarray | None = None
    kept: np.ndarray | None = None
    entering: int | None = None
    farkas: np.ndarray | None = None


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


def ref_run(T, obj, basis, price_tol, bland, switched):
    """The pivot loop; appends to ``switched`` when a stall hands over to
    Bland's rule."""
    m, ncols1 = T.shape
    stall = 0
    stall_limit = 50 * max(1, m)
    for _ in range(5000 + 60 * m + 10 * ncols1):
        rc = obj[:-1]
        cand = np.flatnonzero(rc < -price_tol)
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


def ref_standard(c, M, rhs, price_tol, bland, slack=None, switched=None) -> RefStd:
    """Minimize c.y subject to My = rhs and y >= 0, where rhs >= 0.  Every
    row starts on an artificial unless ``slack[r]`` names a column of M equal
    to the r-th unit vector, basic in row r at the start (-1: none)."""
    switched = [] if switched is None else switched
    m, N = M.shape
    slack = np.full(m, -1, dtype=np.intp) if slack is None else slack
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
        if ref_run(T, obj1, basis, price_tol, bland, switched) is not None:
            raise LpNumericError("phase 1 reported unbounded")
        feas_tol = 10.0 * price_tol * (1.0 + (abs(rhs).max() if m else 0.0))
        if -obj1[-1] > feas_tol:
            return RefStd(farkas=c1[start] - obj1[start])
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
    return RefStd(T, basis, kept, ref_run(T, obj2, basis, price_tol, bland, switched))


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

    std = ref_standard(c2, M, b, lp_tol, bland, slack)
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
