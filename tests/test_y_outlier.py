"""A single outlier in y must not yield a certified wrong answer.

Rank regression is used because it resists outliers in y, and moving the
largest response further up keeps every residual order below it, so the fit
with y[-1] = 1e3 is a witness minimizer for the fit with y[-1] = 1e6.  The
shared tie rule 1e-9 (1 + max |e|) lets the outlier's residual set the
tolerance of every pair, so the walk stops early on spurious tie blocks and
the verifier, cutting the same blocks, accepts the wrong point."""

import numpy as np
import pytest

from rankwalk import Minimizer, RegressionData, eval_loss, make_scores, minimize, verify_certificate

from test_cell_lp_reference import bench_cases


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("kind", ["wilcoxon", "van_der_waerden"])
def test_a_y_outlier_is_fitted_or_its_certificate_refused(kind):
    base = bench_cases().continuous(9, 40, 3)

    def with_last(y_last):
        y = base.y.copy()
        y[-1] = y_last
        return RegressionData(base.x, y)

    data, alpha = with_last(1e6), make_scores(kind, 40)
    out, witness = minimize(data, alpha), minimize(with_last(1e3), alpha)
    assert isinstance(out, Minimizer) and isinstance(witness, Minimizer)
    f_witness = eval_loss(data, alpha, witness.beta_opt)
    gap = eval_loss(data, alpha, np.zeros(data.p)) - f_witness
    assert (out.f_opt - f_witness <= 1e-9 * gap
            or not verify_certificate(data, alpha, out.beta_opt, out.certificate).ok)
