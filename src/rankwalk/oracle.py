"""Independent ground truths for small instances.

The loss is the upper envelope of one linear function per pairing of weights
with observations, F(beta) = max_pi c_pi - g_pi . beta, so for tiny n it can
be minimized directly as a linear program in (t, beta) with one row per
pairing: min t subject to -t - g_pi . beta <= -c_pi.  Region enumeration
walks all orderings and keeps those whose region, the rows
diff(x[pi]) v <= diff(y[pi]), is nonempty.  Both programs have far more rows
than variables, the shape ``lp._solve_by_dual`` solves through its dual, as
it does the cell LP.  Both are deliberately exhaustive; they exist to check
the walk, not to compete with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .loss import _perm_table
from .lp import LpInfeasible, LpNumericError, LpOptimal, LpUnbounded, _solve_by_dual
from .model import RegressionData, ScoreVector, sorted_scores

ORACLE_LIMIT = 8
ENUMERATION_LIMIT = 6


@dataclass(frozen=True)
class OracleResult:
    unbounded: bool
    value: float | None
    point: np.ndarray | None


def oracle_minimize(data: RegressionData, alpha) -> OracleResult:
    """Exact minimum by the one-row-per-pairing envelope program (n <= 8),
    weights sorted on entry."""
    if data.n > ORACLE_LIMIT:
        raise ValueError(f"envelope oracle limited to n <= {ORACLE_LIMIT}, got {data.n}")
    a = sorted_scores(alpha, data.n)
    perms = _perm_table(data.n)
    A = np.empty((perms.shape[0], 1 + data.p))
    A[:, 0] = -1.0
    np.negative(np.einsum("i,kip->kp", a.alpha, data.x[perms]), out=A[:, 1:])
    objective = np.zeros(1 + data.p)
    objective[0] = 1.0
    out = _solve_by_dual(objective, A, -(data.y[perms] @ a.alpha))
    if isinstance(out, LpOptimal):
        return OracleResult(False, out.value, out.point[1:].copy())
    if isinstance(out, LpUnbounded):
        return OracleResult(True, None, None)
    raise LpNumericError("envelope program reported infeasible, which is impossible")


def enumerate_nonempty_cells(data: RegressionData) -> tuple[tuple[int, ...], ...]:
    """All orderings whose region is nonempty (n <= 6)."""
    if data.n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to n <= {ENUMERATION_LIMIT}, got {data.n}")
    found = []
    for pi in itertools.permutations(range(data.n)):
        xp = data.x[list(pi)]
        yp = data.y[list(pi)]
        out = _solve_by_dual(np.zeros(data.p), xp[1:] - xp[:-1], yp[1:] - yp[:-1])
        if not isinstance(out, LpInfeasible):
            found.append(pi)
    return tuple(found)


def random_instance(rng: np.random.Generator, n_range=(2, 6), p_range=(1, 3)) -> tuple[RegressionData, ScoreVector]:
    """Small-integer instance (entries in -3..3) with sorted integer weights,
    for sweep tests."""
    lo, hi = -3, 3
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    p = int(rng.integers(p_range[0], p_range[1] + 1))
    x = rng.integers(lo, hi + 1, size=(n, p)).astype(float)
    y = rng.integers(lo, hi + 1, size=n).astype(float)
    return RegressionData(x, y), ScoreVector(rng.integers(lo, hi + 1, size=n).astype(float))
