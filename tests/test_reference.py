"""Ground truth past the exhaustive oracle's n <= 8.

Two score kinds have closed forms, each a plain linear program that the
free-variable simplex of ``reference_simplex.py`` solves independently of
the walk:

- sign: F = min_m sum_i |e_i - m|, least absolute deviations; the designs
  here hold an intercept column, which absorbs m;
- Wilcoxon: F = sqrt(12)/(n+1) * 1/2 * sum_{i<j} |e_i - e_j| (Jaeckel 1972),
  a pairwise-difference L1 regression with n(n-1)/2 terms, so it is only
  posed at n <= 20.

Both are solved in their dual form, max d.w subject to Z^T w = 0 and
|w| <= 1, whose only artificials are the p equality rows.  van der Waerden
scores have no closed form; their certificates are the check.

The data follow the benchmark's continuous recipe, x = [1, N(0,1)^(p-1)] and
y = x @ N(0,1)^p + t_2 noise, with x altered before y is drawn, or with
another noise, or with whole observations duplicated; plus the benchmark's
integer grid of exact ties.
"""

import math

import numpy as np
import pytest

from rankwalk import (
    LinearProgram,
    LpOptimal,
    Minimizer,
    RegressionData,
    make_scores,
    minimize,
    verify_certificate,
)

from reference_simplex import ref_solve_lp

FAMILIES = ("t2", "integer_grid", "duplicated_rows", "collinear_column", "scaled_column", "cauchy",
            "high_leverage")


def scenario(family, seed, n, p):
    rng = np.random.default_rng(seed)
    if family == "integer_grid":
        x = np.column_stack([np.ones(n), rng.integers(-2, 3, (n, p - 1))]).astype(float)
        return RegressionData(x, rng.integers(-2, 3, n).astype(float))
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    if family == "collinear_column":
        x[:, -1] = 2.0 * x[:, 1]
    elif family == "scaled_column":
        x[:, 1] *= 1e4
    elif family == "high_leverage":
        x[:3, 1:] *= 50.0
    beta = rng.standard_normal(p)
    noise = rng.standard_cauchy(n) if family == "cauchy" else rng.standard_t(2, n)
    y = x @ beta + noise
    if family == "duplicated_rows":  # the second half repeats the first, responses included
        x[n // 2:] = x[:n - n // 2]
        y[n // 2:] = y[:n - n // 2]
    return RegressionData(x, y)


def l1_minimum(z, d):
    """min_b sum |d - z b|, through its dual."""
    z = z[:, np.abs(z).max(axis=0) > 0.0]
    eye = np.eye(z.shape[0])
    rows = [(col, "==", 0.0) for col in z.T]
    rows += [(row, "<=", 1.0) for row in eye] + [(row, ">=", -1.0) for row in eye]
    out = ref_solve_lp(LinearProgram(-d, tuple(rows)))
    assert isinstance(out, LpOptimal)
    return -out.value


def reference(kind, data):
    if kind == "sign":
        return l1_minimum(data.x, data.y)
    i, j = np.triu_indices(data.n, 1)
    return math.sqrt(12.0) / (data.n + 1) * 0.5 * l1_minimum(data.x[i] - data.x[j], data.y[i] - data.y[j])


def certified_fit(data, kind):
    alpha = make_scores(kind, data.n)
    out = minimize(data, alpha)
    assert isinstance(out, Minimizer)
    report = verify_certificate(data, alpha, out.beta_opt, out.certificate)
    assert report.ok, report.failures
    return out


@pytest.mark.parametrize("n,p", [(30, 3), (60, 4)])
@pytest.mark.parametrize("family", FAMILIES)
def test_sign_scores_reach_the_lad_minimum(family, n, p):
    data = scenario(family, 0, n, p)
    assert certified_fit(data, "sign").f_opt == pytest.approx(reference("sign", data), rel=1e-7)


@pytest.mark.parametrize("family", FAMILIES)
def test_sign_scores_reach_the_lad_minimum_at_n120_p6(family):
    data = scenario(family, 0, 120, 6)
    assert certified_fit(data, "sign").f_opt == pytest.approx(reference("sign", data), rel=1e-7)


@pytest.mark.parametrize("family", FAMILIES)
def test_wilcoxon_scores_reach_the_jaeckel_minimum(family):
    data = scenario(family, 1, 20, 3)
    assert certified_fit(data, "wilcoxon").f_opt == pytest.approx(reference("wilcoxon", data), rel=1e-7)


@pytest.mark.parametrize("kind", ["wilcoxon", "van_der_waerden"])
@pytest.mark.parametrize("family", FAMILIES)
def test_certificates_verify(family, kind):
    certified_fit(scenario(family, 2, 60, 4), kind)


# The direction LP failed on these: duplicated observations with "negative
# basic value after phase 1 cleanup" or "optimal point failed feasibility
# verification", the scaled column with a region that "came back empty" or
# the same failed verification.  It also ran for over a minute on each
# integer-grid fit at n = 60 above.
@pytest.mark.parametrize("family,seed,n,p,kind", [
    ("duplicated_rows", 0, 60, 4, "wilcoxon"),
    ("duplicated_rows", 0, 60, 4, "van_der_waerden"),
    ("duplicated_rows", 1, 60, 4, "wilcoxon"),
    ("duplicated_rows", 1, 60, 4, "van_der_waerden"),
    ("duplicated_rows", 2, 60, 4, "wilcoxon"),
    ("duplicated_rows", 2, 60, 4, "van_der_waerden"),
    ("scaled_column", 1, 30, 3, "wilcoxon"),
    ("scaled_column", 1, 60, 4, "wilcoxon"),
])
def test_former_direction_lp_failures_are_certified(family, seed, n, p, kind):
    certified_fit(scenario(family, seed, n, p), kind)


# With a decision threshold of 1e-7 times the data's scale, in place of
# lp_tol times it, the search returned certificates for these that failed
# "balance" and "value".
@pytest.mark.parametrize("seed,kind", [(6, "sign"), (11, "wilcoxon")])
def test_scaled_column_certificates_balance(seed, kind):
    certified_fit(scenario("scaled_column", seed, 30, 3), kind)


# With every cut through the origin (no relaxation), the master LP stalled
# under Dantzig's rule on these: one returned multipliers of the wrong sign,
# so the certificate failed "balance", and one a point that failed the LP's
# own feasibility check.
@pytest.mark.parametrize("seed", [6, 8])
def test_integer_grid_n120_p6_certificates_verify(seed):
    certified_fit(scenario("integer_grid", seed, 120, 6), "van_der_waerden")
