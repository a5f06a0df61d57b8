"""A single outlier in y must not yield a certified wrong answer.

Rank regression is used because it resists outliers in y, and moving the
largest response further up keeps every residual order below it, so the fit
with y[-1] = 1e3 is a witness minimizer for the fit with y[-1] = 1e6.  The
shared tie rule 1e-9 (1 + max |e|) lets the outlier's residual set the
tolerance of every pair, so the walk stops early on spurious tie blocks and
the verifier, cutting the same blocks, accepts the wrong point.

At p = 2 with an intercept and mirrored scores F depends on the slope
alone, so the walk's start step lands on the minimizer wherever it is
taken, and the exact slope (``reference_slope``) judges the fit.  The
outlier's tolerance ties residuals at the start too, so the step must be
taken at tied starts."""

from fractions import Fraction

import numpy as np
import pytest

from rankwalk import Minimizer, RegressionData, eval_loss, make_scores, minimize, verify_certificate

from reference_slope import mirrored_scores, slope_minimum
from test_cell_lp_reference import bench_cases


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("kind, seed, n", [("wilcoxon", 0, 200), ("van_der_waerden", 9, 40)],
                         ids=["wilcoxon", "van_der_waerden"])
def test_a_y_outlier_is_fitted_or_its_certificate_refused(kind, seed, n):
    base = bench_cases().continuous(seed, n, 3)

    def with_last(y_last):
        y = base.y.copy()
        y[-1] = y_last
        return RegressionData(base.x, y)

    data, alpha = with_last(1e6), make_scores(kind, n)
    out, witness = minimize(data, alpha), minimize(with_last(1e3), alpha)
    assert isinstance(out, Minimizer) and isinstance(witness, Minimizer)
    f_witness = eval_loss(data, alpha, witness.beta_opt)
    gap = eval_loss(data, alpha, np.zeros(data.p)) - f_witness
    assert (out.f_opt - f_witness <= 1e-9 * gap
            or not verify_certificate(data, alpha, out.beta_opt, out.certificate).ok)


@pytest.mark.parametrize("seed, n, kind", [(7, 40, "sign"), (7, 40, "wilcoxon"), (7, 40, "van_der_waerden"),
                                           (0, 200, "sign")])
def test_a_p2_y_outlier_fit_reaches_the_exact_slope(seed, n, kind):
    """y[-1] = 1e8 on ``continuous`` data at p = 2: the fit certifies, and
    f_opt and the slope are within 1e-12 relative of the exact minimum and
    its interval.  Without the step at tied starts the walk certified a
    slope about 99% of the way back to the start on the first three and
    refused its own certificate's value on the fourth."""
    base = bench_cases().continuous(seed, n, 2)
    y = base.y.copy()
    y[-1] = 1e8
    data, alpha = RegressionData(base.x, y), mirrored_scores(kind, n)
    exact = slope_minimum(data.x[:, 1], data.y, alpha.alpha)
    out = minimize(data, alpha)
    assert isinstance(out, Minimizer)
    assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok
    assert abs(Fraction(out.f_opt) - exact.f) <= Fraction(1e-12) * exact.f
    slope = Fraction(out.beta_opt[1])
    assert max(exact.lo - slope, slope - exact.hi, 0) <= Fraction(1e-12) * max(abs(exact.lo), abs(exact.hi))
