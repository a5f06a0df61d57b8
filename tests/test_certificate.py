import numpy as np
import pytest

from rankwalk import (
    Minimizer,
    OptimalityCertificate,
    RegressionData,
    ScoreVector,
    active_pairs,
    birkhoff_decompose,
    eval_loss,
    eval_loss_bruteforce,
    improving_direction,
    make_scores,
    minimize,
    oracle_minimize,
    residuals,
    solve_certificate,
    verify_certificate,
)

HAND_G = np.array([
    [0.5, 0.0, 0.5],
    [0.5, 0.0, 0.5],
    [0.0, 1.0, 0.0],
])


def pairs_at(data, beta):
    return active_pairs(residuals(data, beta))


def test_solve_certificate_worked(worked):
    data, alpha = worked
    cert = solve_certificate(data, alpha, pairs_at(data, [0.0]))
    assert cert is not None
    np.testing.assert_allclose(cert.G, HAND_G, atol=1e-9)  # the system pins G down uniquely here


def test_solve_certificate_interior_point_infeasible(worked):
    data, alpha = worked
    ap = pairs_at(data, [-2.0])
    assert solve_certificate(data, alpha, ap) is None
    assert improving_direction(data, alpha, ap) is not None


def test_solve_certificate_intercept_only():
    data = RegressionData(np.ones((3, 1)), np.array([0.0, 1.0, 0.0]))
    alpha = ScoreVector([-1.0, 0.0, 1.0])
    cert = solve_certificate(data, alpha, pairs_at(data, [0.7]))
    assert cert is not None
    report = verify_certificate(data, alpha, [0.7], cert)
    assert report.ok, report.conditions


def test_solve_certificate_without_ties():
    # Every tie block is a singleton, so nothing is free: the fixed pairing
    # balances the design here and is the certificate.
    data = RegressionData(np.ones((2, 1)), np.array([0.0, 1.0]))
    alpha = ScoreVector([-1.0, 1.0])
    ap = pairs_at(data, [0.4])
    assert ap.label.tolist() == list(range(data.n))
    cert = solve_certificate(data, alpha, ap)
    np.testing.assert_array_equal(cert.G, np.eye(2))
    assert cert.decomposition == ((1.0, (0, 1)),)
    assert improving_direction(data, alpha, ap) is None
    assert verify_certificate(data, alpha, [0.4], cert).ok


def test_birkhoff_identity():
    assert birkhoff_decompose(np.eye(3)) == [(1.0, (0, 1, 2))]


def test_birkhoff_two_by_two():
    terms = birkhoff_decompose(np.full((2, 2), 0.5))
    assert sorted(terms) == [(0.5, (0, 1)), (0.5, (1, 0))]


def test_birkhoff_worked_matrix():
    terms = birkhoff_decompose(HAND_G)
    assert sorted(pi for _, pi in terms) == [(0, 2, 1), (2, 0, 1)]
    assert all(abs(w - 0.5) < 1e-12 for w, _ in terms)
    recomposed = np.zeros((3, 3))
    for w, pi in terms:
        for i, j in enumerate(pi):
            recomposed[i, j] += w
    np.testing.assert_allclose(recomposed, HAND_G, atol=1e-12)


def test_birkhoff_random_round_trip():
    """Random convex combinations decompose back to the same matrix with few
    terms and unit total weight."""
    rng = np.random.default_rng(41)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        weights = rng.dirichlet(np.ones(m))
        G = np.zeros((n, n))
        for w in weights:
            pi = rng.permutation(n)
            G[np.arange(n), pi] += w
        terms = birkhoff_decompose(G)
        assert len(terms) <= n * n - 2 * n + 2
        assert abs(sum(w for w, _ in terms) - 1.0) <= 1e-9
        assert all(w > 0.0 for w, _ in terms)
        recomposed = np.zeros((n, n))
        for w, pi in terms:
            recomposed[np.arange(n), list(pi)] += w
        assert np.abs(recomposed - G).max() < 1e-9


def test_birkhoff_long_augmenting_path():
    """0.5 (I + cyclic shift): the last row's augmenting path runs through
    every other row, deeper than Python's recursion limit."""
    n = 3000
    shift = (np.arange(n) + 1) % n
    G = np.zeros((n, n))
    G[np.arange(n), np.arange(n)] = 0.5
    G[np.arange(n), shift] = 0.5
    terms = birkhoff_decompose(G)
    assert [w for w, _ in terms] == [0.5, 0.5]
    assert sorted(pi for _, pi in terms) == sorted([tuple(range(n)), tuple(shift.tolist())])
    recomposed = np.zeros((n, n))
    for w, pi in terms:
        recomposed[np.arange(n), list(pi)] += w
    np.testing.assert_array_equal(recomposed, G)


def test_birkhoff_rejects_non_bistochastic():
    with pytest.raises(ValueError):
        birkhoff_decompose(np.zeros((2, 3)))
    bad_rows = np.array([[0.45, 0.45], [0.5, 0.5]])
    with pytest.raises(ValueError, match="bistochastic"):
        birkhoff_decompose(bad_rows)
    negative = np.array([[1.2, -0.2], [-0.2, 1.2]])
    with pytest.raises(ValueError, match="bistochastic"):
        birkhoff_decompose(negative)


def test_verify_certificate_worked(worked):
    data, alpha = worked
    cert = OptimalityCertificate(HAND_G, ((0.5, (0, 2, 1)), (0.5, (2, 0, 1))))
    report = verify_certificate(data, alpha, [0.0], cert)
    assert report.ok
    assert report.certified_value == pytest.approx(1.0, abs=1e-12)
    assert [name for name, _, _ in report.conditions] == [
        "balance", "decomposition", "decomposition_support", "value"]
    assert all(type(good) is bool for _, good, _ in report.conditions)  # rankwalk check writes them as JSON
    assert report.failures == ()


def test_verify_certificate_wrong_point(worked):
    # a valid certificate presented at a point with different ties
    data, alpha = worked
    cert = OptimalityCertificate(HAND_G, ((0.5, (0, 2, 1)), (0.5, (2, 0, 1))))
    report = verify_certificate(data, alpha, [-2.0], cert)
    assert not report.ok
    assert "decomposition_support" in report.failures


def test_verify_certificate_broken_matrix(worked):
    """A G is read only through how far the terms are from recomposing it:
    a broken G beside weights that sum to 1 fails ``decomposition`` on that
    deviation, and weights short of 1 fail it on their sum as well."""
    data, alpha = worked
    broken = HAND_G.copy()
    broken[0, 0] = 0.4
    cert = OptimalityCertificate(broken, ((1.0, (0, 2, 1)),))
    assert cert.recomposition_dev == pytest.approx(0.6)  # G[0, 0] is 0.4 where the ordering puts 1
    report = verify_certificate(data, alpha, [0.0], cert)
    assert "decomposition" in report.failures
    assert dict((name, detail) for name, _, detail in report.conditions)["decomposition"] == (
        "weight sum 1, recomposition dev 0.6")
    report = verify_certificate(data, alpha, [0.0],
                                OptimalityCertificate(broken, ((0.4, (0, 2, 1)), (0.5, (2, 0, 1)))))
    assert "decomposition" in report.failures
    assert dict((name, detail) for name, _, detail in report.conditions)["decomposition"] == (
        "weight sum 0.9, recomposition dev 0.1")


def test_verify_certificate_given_float_orderings():
    """Orderings of floats are refused when the certificate is built, so the
    verifier never indexes with them."""
    data = RegressionData(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 0.0]))
    alpha = ScoreVector([-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="integer"):
        verify_certificate(data, alpha, [0.0], OptimalityCertificate(np.eye(3), ((1.0, (0.0, 1.0, 2.0)),)))


def test_verify_certificate_bad_decomposition(worked):
    data, alpha = worked
    report = verify_certificate(data, alpha, [0.0],
                                OptimalityCertificate(HAND_G, ((0.6, (0, 2, 1)), (0.5, (2, 0, 1)))))
    assert "decomposition" in report.failures
    report = verify_certificate(data, alpha, [0.0],
                                OptimalityCertificate(HAND_G, ((0.5, (0, 2, 1)), (0.5, (1, 0, 2)))))
    assert "decomposition_support" in report.failures


def test_verify_certificate_wrong_shape(worked):
    data, alpha = worked
    report = verify_certificate(data, alpha, [0.0], OptimalityCertificate(np.eye(2), ()))
    assert not report.ok and report.conditions[0][0] == "shape"


def test_exactly_one_of_direction_and_certificate():
    """At any point, either a strict-descent direction or a balance witness
    exists, never both and never neither."""
    rng = np.random.default_rng(61)
    both = neither = 0
    for _ in range(120):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 3))
        data = RegressionData(rng.integers(-3, 4, size=(n, p)).astype(float),
                              rng.integers(-3, 4, size=n).astype(float))
        alpha = ScoreVector(np.sort(rng.integers(-3, 4, size=n)).astype(float))
        beta = rng.integers(-3, 4, size=p).astype(float)
        ap = pairs_at(data, beta)
        has_direction = improving_direction(data, alpha, ap) is not None
        has_witness = solve_certificate(data, alpha, ap) is not None
        if has_direction and has_witness:
            both += 1
        if not has_direction and not has_witness:
            neither += 1
    assert both == 0 and neither == 0


def test_certified_value_prices_the_loss(worked):
    data, alpha = worked
    cert = solve_certificate(data, alpha, pairs_at(data, [0.0]))
    report = verify_certificate(data, alpha, [0.0], cert)
    f = eval_loss(data, alpha, [0.0])
    assert abs(report.certified_value - f) <= 1e-7 * (1.0 + abs(f))


def test_raw_weights_check_as_the_sorted_ones_do():
    """Weights in any order are sorted on entry by every function that takes
    them, so a certificate checks with the weights it was fitted with."""
    rng = np.random.default_rng(8)
    data = RegressionData(np.column_stack([np.ones(8), rng.standard_normal(8)]), rng.standard_normal(8))
    alpha = make_scores("wilcoxon", 8)
    raw = rng.permutation(alpha.alpha)
    assert (np.diff(raw) < 0).any()
    fit = minimize(data, raw)
    assert isinstance(fit, Minimizer)
    beta = fit.beta_opt
    report = verify_certificate(data, raw, beta, fit.certificate)
    assert report.ok, report.failures
    assert report.certified_value == verify_certificate(data, alpha, beta, fit.certificate).certified_value
    assert eval_loss(data, raw, beta) == eval_loss(data, alpha, beta) == pytest.approx(fit.f_opt, rel=1e-9)
    assert eval_loss_bruteforce(data, raw, beta) == eval_loss_bruteforce(data, alpha, beta)
    assert oracle_minimize(data, raw).value == oracle_minimize(data, alpha).value
