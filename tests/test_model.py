import math

import numpy as np
import pytest

from rankwalk import (
    RegressionData,
    ScoreVector,
    inverse_normal_cdf,
    make_scores,
    standard_normal_cdf,
)

Q75 = 0.6744897501960817  # frozen from the bisection oracle below
Q975 = 1.9599639845400536


def bisect_quantile(u):
    """Independent quantile oracle: raw bisection on the erf-based cdf."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_sign_scores():
    np.testing.assert_array_equal(make_scores("sign", 3).alpha, [-1.0, 0.0, 1.0])
    np.testing.assert_array_equal(make_scores("sign", 4).alpha, [-1.0, -1.0, 1.0, 1.0])
    np.testing.assert_array_equal(make_scores("sign", 1).alpha, [0.0])


def test_wilcoxon_scores():
    got = make_scores("wilcoxon", 3).alpha
    np.testing.assert_allclose(got, [-0.8660254037844386, 0.0, 0.8660254037844386], atol=1e-15)
    np.testing.assert_array_equal(make_scores("wilcoxon", 1).alpha, [0.0])


def test_van_der_waerden_scores():
    got = make_scores("van_der_waerden", 3).alpha
    np.testing.assert_allclose(got, [-Q75, 0.0, Q75], atol=1e-9)
    assert got[1] == 0.0


def test_named_kinds_monotone_and_antisymmetric():
    for kind in ("sign", "wilcoxon", "van_der_waerden"):
        for n in range(1, 13):
            a = make_scores(kind, n).alpha
            assert np.all(np.diff(a) >= 0.0)
            np.testing.assert_allclose(a, -a[::-1], atol=1e-12)


def test_named_kinds_match_the_generator_at_each_point_bit_for_bit():
    """Each weight is the kind's generator evaluated at i/(n+1), one point at
    a time, to the last bit."""
    generators = {
        "sign": lambda u: 1.0 if u > 0.5 else -1.0 if u < 0.5 else 0.0,
        "wilcoxon": lambda u: math.sqrt(12.0) * (u - 0.5),
        "van_der_waerden": inverse_normal_cdf,
    }
    for kind, phi in generators.items():
        for n in range(1, 301):
            expected = np.array([phi(i / (n + 1)) for i in range(1, n + 1)])
            assert make_scores(kind, n).alpha.tobytes() == expected.tobytes(), (kind, n)


def test_make_scores_custom_table():
    """A table of weights is a ScoreVector; make_scores takes only a kind."""
    np.testing.assert_array_equal(ScoreVector([-2.0, 0.0, 5.0]).alpha, [-2.0, 0.0, 5.0])
    for table in ([-2.0, 0.0, 5.0], np.array([-2.0, 0.0, 5.0])):
        with pytest.raises(ValueError, match="unknown score kind.*a table is a ScoreVector"):
            make_scores(table, 3)


def test_make_scores_rejects_bad_input():
    for n in (0, 3.0, True, "3"):
        with pytest.raises(ValueError, match="n must be an integer of at least 1"):
            make_scores("sign", n)
    with pytest.raises(ValueError, match="unknown score kind"):
        make_scores("huber", 3)


def test_score_vector_sorts():
    np.testing.assert_array_equal(ScoreVector([1, -1, 0]).alpha, [-1.0, 0.0, 1.0])
    np.testing.assert_array_equal(ScoreVector([0.0, 0.0, 1.0]).alpha, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(ScoreVector([5.0]).alpha, [5.0])
    np.testing.assert_array_equal(ScoreVector(np.array([[2.0], [1.0]])).alpha, [1.0, 2.0])


def test_score_vector_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 9))
        np.testing.assert_array_equal(ScoreVector(v).alpha, ScoreVector(rng.permutation(v)).alpha)


def test_score_vector_rejects():
    with pytest.raises(ValueError, match="^need at least one weight$"):
        ScoreVector([])
    with pytest.raises(ValueError, match="^weights must be finite$"):
        ScoreVector([1.0, math.nan])
    with pytest.raises(ValueError, match="^weights must be finite$"):
        ScoreVector([math.inf, 1.0])


def test_score_vector_keeps_sorted_input_bit_for_bit():
    """Sorted weights keep their bits and order, signed zeros included, and
    the stored copy is frozen while the caller's array is not."""
    for kind in ("sign", "wilcoxon", "van_der_waerden"):
        a = make_scores(kind, 41).alpha
        assert ScoreVector(a).alpha.tobytes() == a.tobytes()
    zeros = np.array([-1.0] * 10 + [-0.0, 0.0] * 10 + [1.0] * 10)
    assert ScoreVector(zeros).alpha.tobytes() == zeros.tobytes()
    raw = np.array([1.0, 0.0])
    sv = ScoreVector(raw)
    with pytest.raises(ValueError):
        sv.alpha[0] = 7.0  # frozen storage
    raw[0] = 7.0
    np.testing.assert_array_equal(sv.alpha, [0.0, 1.0])


def test_inverse_normal_cdf_center_and_tails():
    assert inverse_normal_cdf(0.5) == 0.0
    assert abs(inverse_normal_cdf(0.975) - Q975) < 1e-12
    assert abs(inverse_normal_cdf(0.025) + inverse_normal_cdf(0.975)) < 1e-12


def test_inverse_normal_cdf_matches_bisection_oracle():
    for u in (0.01, 0.1, 0.25, 1.0 / 3.0, 0.6, 0.9, 0.999):
        assert abs(inverse_normal_cdf(u) - bisect_quantile(u)) < 1e-11


def test_inverse_normal_cdf_round_trip():
    # the documented contract: |cdf(result) - u| < 1e-12
    for u in np.linspace(1.0 / 1001.0, 1000.0 / 1001.0, 1000):
        assert abs(standard_normal_cdf(inverse_normal_cdf(u)) - u) < 1e-12
    # and composing the other way is the identity
    for x in np.linspace(-4.0, 4.0, 1000):
        assert abs(inverse_normal_cdf(standard_normal_cdf(x)) - x) < 1e-10


def test_inverse_normal_cdf_domain():
    for u in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            inverse_normal_cdf(u)


def test_regression_data_shapes():
    data = RegressionData(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 0.0]))
    assert (data.n, data.p) == (3, 1)  # 1-d design becomes a single column
    data = RegressionData(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.0, 1.0]))
    assert (data.n, data.p) == (2, 2)


def test_regression_data_rejects_bad_input():
    with pytest.raises(ValueError):
        RegressionData(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        RegressionData(np.array([[1.0, math.inf]]), np.array([0.0]))
    with pytest.raises(ValueError):
        RegressionData(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        RegressionData(np.zeros((2, 2, 2)), np.zeros(2))


def test_regression_data_is_frozen():
    data = RegressionData(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        data.x[0, 0] = 9.0
    with pytest.raises(ValueError):
        data.y[0] = 9.0
