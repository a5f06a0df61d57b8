"""The walk and gradient descent as the response grows toward overflow.

Scaling y by 10^k scales the loss and the minimizer by the same factor, so
every fit has an answer until the residuals along the way overflow.  Up to
10^303 both methods must find it with no NumPy warning; past that a fit may
end in a typed refusal of the ray, never in a raw error."""

import warnings

import numpy as np
import pytest

from rankwalk import (LpNumericError, Minimizer, RegressionData, Unbounded, WalkError, WalkNumericError, cell_lp,
                      ggd_minimize, make_scores, minimize, verify_certificate)
from test_cell_lp_reference import bench_cases

CASES = bench_cases()
SEEDS = range(6)


def scaled(seed, k, n=30, slope=1.0):
    base = CASES.continuous(seed, n, 2)
    return RegressionData(base.x * [1.0, slope], base.y * 10.0 ** k)


@pytest.mark.parametrize("k", [0, 160, 250, 300, 303])
def test_the_walk_certifies_and_gradient_descent_agrees(k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in SEEDS:
            data = scaled(seed, k)
            for kind in CASES.KINDS:
                alpha = make_scores(kind, data.n)
                out = minimize(data, alpha)
                assert isinstance(out, Minimizer)
                assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok
                ggd = ggd_minimize(data, alpha)
                assert abs(ggd.f - out.f_opt) <= 1e-6 * abs(out.f_opt), (seed, kind)


@pytest.mark.parametrize("k", [305, 307])
def test_past_the_overflow_a_fit_ends_in_a_result_or_the_refused_ray(k):
    """The ray's steps and the cell LP overflow here, so NumPy's warnings are
    expected and not raised."""
    refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for seed in SEEDS:
            data = scaled(seed, k)
            for kind in CASES.KINDS:
                alpha = make_scores(kind, data.n)
                try:
                    out = minimize(data, alpha)
                except WalkError as exc:
                    assert type(exc) is WalkError and exc.layer == "ray", exc
                    refused += 1
                else:
                    assert isinstance(out, Minimizer)
                    assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok
                try:
                    ggd_minimize(data, alpha)
                except ValueError as exc:
                    assert str(exc) == "a breakpoint of the ray is not finite"
    assert refused > 0


@pytest.mark.parametrize("k", [306, 307])
def test_unbounded_instances_near_the_overflow_end_in_a_verdict_or_a_walk_error(k):
    """Acceptance gate 8's family, x and y scaled by 10^k."""
    rng = np.random.default_rng(20260816 + 4)
    for _ in range(40):
        n, p = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        normal = rng.integers(-2, 3, size=p).astype(float)
        if not normal.any():
            normal[0] = 1.0
        rows = []
        while len(rows) < n:
            row = rng.integers(-3, 4, size=p).astype(float)
            if row @ normal > 0:
                rows.append(row)
        y = rng.integers(-3, 4, size=n).astype(float)
        data = RegressionData(np.array(rows) * 10.0 ** k, y * 10.0 ** k)
        alpha = np.zeros(n)
        alpha[-1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                out = minimize(data, alpha)
            except WalkError:
                continue
        assert isinstance(out, Unbounded)


@pytest.mark.parametrize("seed, k, error, layer, message", [
    (1, 306, WalkError, "ray", "the residuals at the step overflow"),
    (2, 307, WalkNumericError, "cell_lp", "cell_lp failed at iteration 0: optimal point failed verification"),
])
def test_a_point_the_walk_makes_that_overflows_ends_in_a_walk_error(seed, k, error, layer, message):
    """With the slope's column shrunk by 10^3 the walk's own points overflow
    where its start does not: the point of a step, and the cell LP's region
    minimum [0, inf], which its row check must refuse rather than return as
    optimal.  Neither refusal blames a ``beta`` the caller never gave."""
    data = scaled(seed, k, n=20, slope=1e-3)
    alpha = make_scores("sign", data.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(error) as info:
            minimize(data, alpha)
        assert (type(info.value), info.value.layer, str(info.value)) == (error, layer, message)
        if error is WalkNumericError:
            with pytest.raises(LpNumericError, match="^optimal point failed verification$"):
                cell_lp(data, alpha, np.argsort(data.y, kind="stable"))
