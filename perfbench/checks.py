"""Output checks, run after the timed fits.

Two score kinds have closed forms that give an independent reference value:

- Wilcoxon: F = sqrt(12)/(n+1) * 1/2 * sum_{i<j} |e_i - e_j| (Jaeckel 1972),
  so its minimum is a pairwise-difference L1 regression;
- sign: F = min_m sum_i |e_i - m|, least absolute deviations with a free
  intercept (Koenker & Bassett 1978).

Both are solved with scipy's HiGHS in their dual form, max d.w subject to
Z^T w = 0 and |w| <= 1, which has only p rows.  van der Waerden scores have
no closed form; their minimizers are checked by the certificate alone.

Importing this module needs scipy.  There is no fallback: a run that cannot
import it fails instead of skipping the reference checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

import rankwalk

REL_TOL = 1e-6  # reference and recomputed values agree to this relative tolerance


def _l1_dual(z: np.ndarray, d: np.ndarray) -> float:
    """min_b sum |d - z b|, through its dual."""
    z = z[:, np.abs(z).max(axis=0) > 0.0]  # all-zero columns only add 0 = 0 rows
    # HiGHS presolve takes seconds on the one-row program of p=2 with 45k pairs.
    res = linprog(-d, A_eq=z.T, b_eq=np.zeros(z.shape[1]), bounds=(-1.0, 1.0), method="highs-ds",
                  options={"presolve": False})
    if res.status != 0:
        raise RuntimeError(f"reference LP did not solve: {res.message}")
    return -float(res.fun)


def reference_value(kind: str, data: rankwalk.RegressionData) -> float | None:
    """Exact minimum of the loss for the score kinds with a closed form."""
    x, y, n = data.x, data.y, data.n
    if kind == "wilcoxon":
        i, j = np.triu_indices(n, 1)
        return math.sqrt(12.0) / (n + 1) * 0.5 * _l1_dual(x[i] - x[j], y[i] - y[j])
    if kind == "sign":
        return _l1_dual(np.column_stack([x, np.ones(n)]), y)
    return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * (1.0 + abs(b))


def check_fit(case, out, reference: float | None) -> list[str]:
    """Every problem found with one fit's output; empty when it checks."""
    data, alpha = case.data, case.alpha
    problems = []
    if isinstance(out, rankwalk.Minimizer):
        report = rankwalk.verify_certificate(data, alpha, out.beta_opt, out.certificate)
        if not report.ok:
            problems.append(f"certificate fails {', '.join(report.failures)}")
        elif not _close(report.certified_value, out.f_opt):
            problems.append(f"certified value {report.certified_value!r} != f_opt {out.f_opt!r}")
        if reference is not None and not _close(out.f_opt, reference):
            problems.append(f"f_opt {out.f_opt!r} != reference {reference!r}")
    elif isinstance(out, rankwalk.Unbounded):
        values = [rankwalk.eval_loss(data, alpha, out.point + t * out.ray) for t in (0.0, 1.0, 10.0, 100.0)]
        if not all(b < a for a, b in zip(values, values[1:])):
            problems.append(f"ray does not decrease the loss: {values}")
        if abs(float(alpha.alpha.sum())) <= 1e-9 * data.n:
            problems.append("weights sum to zero, so the loss is bounded below by 0 and no ray exists")
    elif isinstance(out, rankwalk.GgdResult):
        f_at_beta = rankwalk.eval_loss(data, alpha, out.beta)
        if not _close(out.f, f_at_beta):
            problems.append(f"F {out.f!r} != eval_loss(beta) {f_at_beta!r}")
        if reference is not None and out.f < reference - REL_TOL * (1.0 + abs(reference)):
            problems.append(f"F {out.f!r} is below the exact minimum {reference!r}")
    else:
        problems.append(f"unexpected output type {type(out).__name__}")
    return problems
