"""A design with more columns than rows and tied responses has a minimizer.

Sign scores at even n sum to exactly 0, so every residual ordering gives
F >= 0, and F = 0 wherever x beta = y.  An x of full row rank interpolates
any y, so the minimum is 0.  The descent master of the walk's first
iteration fails on this design instead (ROADMAP, smaller findings: more
columns than rows)."""

import numpy as np
import pytest

from rankwalk import Minimizer, RegressionData, WalkError, make_scores, minimize, verify_certificate


@pytest.mark.xfail(strict=True, raises=WalkError,
                   reason="ROADMAP smaller findings: the descent master fails with more columns than rows")
def test_a_design_wider_than_tall_reaches_zero():
    rng = np.random.default_rng(7)
    n = 34
    x = np.column_stack([np.ones(n), rng.standard_normal((n, 35))])
    y = np.round(2.0 * rng.standard_normal(n))
    data, alpha = RegressionData(x, y), make_scores("sign", n)
    assert alpha.alpha.sum() == 0.0 and np.linalg.matrix_rank(x) == n
    out = minimize(data, alpha)
    assert isinstance(out, Minimizer) and out.f_opt <= 1e-9
    assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok
