"""A guard on the walk's failures when one column or one row of x is scaled.

The LP reads the raw size of x in its tolerances, so scaling a column by
2^20 or 1e6 still breaks some fits (ROADMAP item 2).  This sweep of 288
fits, column 1 scaled by 1e4, 2^20, 1e6 and 2^-20 on the benchmark's
``continuous(s, 40, 3)``, ``integer_grid(s, 18, 3)`` and
``continuous(s, 60, 4)`` at seeds 0-7 with the three score kinds, fails 12
fits; a change to the LP core may not fail more.  A fit fails unless it
ends in a ``Minimizer`` whose certificate checks: none of these losses is
unbounded below, since each base fit certifies, so an ``Unbounded`` is a
wrong verdict (ROADMAP item 12) and counts with the refusals.

The leverage sweep scales the non-intercept covariates of the last row of
``continuous(s, n, p)`` instead, which no rescaling of beta undoes: 54 fits
at each of 1e4, 1e6 and 1e8, which fail 0, 3 and 37; each factor may not
fail more.
"""

import numpy as np
import pytest

from rankwalk import (
    Minimizer,
    RegressionData,
    WalkError,
    eval_loss,
    make_scores,
    minimize,
    verify_certificate,
)

from test_cell_lp_reference import bench_cases
from test_reference import certified_fit, l1_minimum

MOST_FAILURES = 12
MOST_LEVERAGE_FAILURES = {1e4: 0, 1e6: 3, 1e8: 37}


def failures(fits) -> int:
    """How many of the (data, alpha) fits end other than in a ``Minimizer``
    whose certificate checks."""
    failed = 0
    for data, alpha in fits:
        try:
            out = minimize(data, alpha)
        except WalkError:
            failed += 1
            continue
        failed += not (isinstance(out, Minimizer)
                       and verify_certificate(data, alpha, out.beta_opt, out.certificate).ok)
    return failed


def with_column_scaled(base, scale):
    x = base.x.copy()
    x[:, 1] *= scale
    return RegressionData(x, base.y)


def with_last_row_scaled(base, factor):
    x = base.x.copy()
    x[-1, 1:] *= factor
    return RegressionData(x, base.y)


def test_column_scaled_sweep_fails_no_more_fits():
    cases = bench_cases()
    fits = [(with_column_scaled(gen(seed, n, p), scale), make_scores(kind, n))
            for scale in (1e4, 2.0 ** 20, 1e6, 2.0 ** -20)
            for gen, n, p in ((cases.continuous, 40, 3), (cases.integer_grid, 18, 3), (cases.continuous, 60, 4))
            for seed in range(8)
            for kind in cases.KINDS]
    assert len(fits) == 288
    failed = failures(fits)
    assert failed <= MOST_FAILURES, failed


@pytest.mark.parametrize("factor", sorted(MOST_LEVERAGE_FAILURES))
def test_leverage_sweep_fails_no_more_fits(factor):
    cases = bench_cases()
    fits = [(with_last_row_scaled(cases.continuous(seed, n, p), factor), make_scores(kind, n))
            for n, p in ((40, 3), (120, 4), (200, 6))
            for seed in range(6)
            for kind in cases.KINDS]
    assert len(fits) == 54
    failed = failures(fits)
    assert failed <= MOST_LEVERAGE_FAILURES[factor], failed


# On these, phase 1 of a cell LP stops at a column whose entries all sit
# under the pivot tolerance.  Its sum of artificials is bounded below by 0,
# so that stop may only decide feasibility, never refuse the program.
@pytest.mark.parametrize("generator,seed,n,p,kind,scale", [
    ("integer_grid", 5, 18, 3, "van_der_waerden", 1e6),
    ("continuous", 1, 60, 4, "van_der_waerden", 2.0 ** 20),
    ("continuous", 3, 60, 4, "sign", 2.0 ** 20),
])
def test_column_scaled_fit_maps_back_to_the_unscaled_minimum(generator, seed, n, p, kind, scale):
    base = getattr(bench_cases(), generator)(seed, n, p)
    alpha = make_scores(kind, n)
    beta = certified_fit(with_column_scaled(base, scale), kind).beta_opt.copy()
    beta[1] *= scale
    f_opt = certified_fit(base, kind).f_opt
    descent = eval_loss(base, alpha, np.zeros(p)) - f_opt
    assert abs(eval_loss(base, alpha, beta) - f_opt) <= 1e-9 * descent


def test_a_high_leverage_row_reaches_the_lad_minimum():
    data = with_last_row_scaled(bench_cases().continuous(0, 40, 3), 1e8)
    out = certified_fit(data, "sign")
    assert out.f_opt == pytest.approx(l1_minimum(data.x, data.y), rel=1e-7)
