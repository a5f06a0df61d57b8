"""A guard on the walk's failures when one column of x is scaled.

The walk reads the raw size of x in its tolerances, so scaling a column by
2^20 or 1e6 still breaks some fits (ROADMAP item 1).  This sweep of 288
fits, column 1 scaled by 1e4, 2^20, 1e6 and 2^-20 on the benchmark's
``continuous(s, 40, 3)``, ``integer_grid(s, 18, 3)`` and
``continuous(s, 60, 4)`` at seeds 0-7 with the three score kinds, fails 20
fits; a change to the LP core may not fail more.  A fit fails unless it
ends in a ``Minimizer`` whose certificate checks: none of these losses is
unbounded below, since each base fit certifies, so an ``Unbounded`` is a
wrong verdict (ROADMAP item 12) and counts with the refusals.
"""

from rankwalk import Minimizer, RegressionData, WalkError, make_scores, minimize, verify_certificate

from test_cell_lp_reference import bench_cases

MOST_FAILURES = 20


def test_column_scaled_sweep_fails_no_more_fits():
    cases = bench_cases()
    fits = failed = 0
    for scale in (1e4, 2.0 ** 20, 1e6, 2.0 ** -20):
        for gen, n, p in ((cases.continuous, 40, 3), (cases.integer_grid, 18, 3), (cases.continuous, 60, 4)):
            for seed in range(8):
                base = gen(seed, n, p)
                x = base.x.copy()
                x[:, 1] *= scale
                data = RegressionData(x, base.y)
                for kind in cases.KINDS:
                    alpha = make_scores(kind, n)
                    fits += 1
                    try:
                        out = minimize(data, alpha)
                    except WalkError:
                        failed += 1
                        continue
                    failed += not (isinstance(out, Minimizer)
                                   and verify_certificate(data, alpha, out.beta_opt, out.certificate).ok)
    assert fits == 288
    assert failed <= MOST_FAILURES, failed
