"""The certificate, weights and a T x n array of orderings.

``minimize`` and ``verify_certificate`` check it with one function, from
the terms alone, and build no n x n array; G and the decomposition are built
from the terms only when read.  A certificate given as G is turned into its
terms when built.  The forgeries of both kinds are in
``test_certificate_reference``, against a loop over the terms.
"""

import numpy as np
import pytest

import rankwalk.woa
from rankwalk import OptimalityCertificate, WalkInvariantError, minimize, verify_certificate

from test_certificate_reference import minimizers  # noqa: F401  -- the fixture


def test_verify_certificate_reads_the_terms_not_G(minimizers):  # noqa: F811
    for data, alpha, _ in minimizers:
        out = minimize(data, alpha)
        cert = out.certificate
        report = verify_certificate(data, alpha, out.beta_opt, cert)
        assert report.ok
        assert "G" not in vars(cert) and "decomposition" not in vars(cert)
        on_G = verify_certificate(data, alpha, out.beta_opt, OptimalityCertificate(cert.G, cert.decomposition))
        assert on_G.ok and on_G.certified_value == report.certified_value


def test_printing_a_walk_result_builds_no_G(minimizers):  # noqa: F811
    data, alpha, _ = minimizers[0]
    out = minimize(data, alpha)
    text = repr(out)
    assert "G" not in vars(out.certificate) and "decomposition" not in vars(out.certificate)
    weights, orders = out.certificate.weights, out.certificate.orders
    assert f"OptimalityCertificate(<{weights.size} weighted orderings of {data.n}>)" in text
    twin = OptimalityCertificate._of_terms(weights, orders)
    assert out.certificate == out.certificate and twin != out.certificate  # by identity, reading no G
    assert "G" not in vars(out.certificate) and "G" not in vars(twin)
    given = OptimalityCertificate(np.eye(2), [(1.0, (0, 1))])
    assert repr(given) == "OptimalityCertificate(<1 weighted orderings of 2>)"  # one form, however it was built


def test_minimize_names_the_failures_the_verifier_names(minimizers, monkeypatch):  # noqa: F811
    """A certificate of the walk's search that fails is a WalkInvariantError
    naming the report's failures at the walk's point."""
    search = rankwalk.woa._descent_search
    for data, alpha, fit in minimizers[:6]:
        forged = []

        def short_of_one(*args):
            found = search(*args)
            if isinstance(found, OptimalityCertificate):
                found = OptimalityCertificate._of_terms(0.999 * found.weights, found.orders)
                forged.append(found)
            return found

        monkeypatch.setattr(rankwalk.woa, "_descent_search", short_of_one)
        with pytest.raises(WalkInvariantError) as raised:
            minimize(data, alpha)
        monkeypatch.undo()
        failures = verify_certificate(data, alpha, fit.beta_opt, forged[-1]).failures
        assert "decomposition" in failures
        assert str(raised.value) == f"certificate failed verification: {failures}"


def test_terms_build_the_old_loops_G(minimizers):  # noqa: F811
    for data, _, fit in minimizers:
        weights, orders = fit.certificate.weights, fit.certificate.orders
        assert weights.dtype == float and orders.dtype == np.intp and orders.shape == (weights.size, data.n)
        assert not weights.flags.writeable and not orders.flags.writeable
        cert = OptimalityCertificate._of_terms(weights, orders)
        G = cert.G
        n = data.n
        old = np.zeros((n, n))
        ranks = np.arange(n)
        for w, pi in zip(weights, orders):
            old[ranks, pi] += w
        assert G.dtype == old.dtype and G.shape == (n, n)
        assert G.tobytes() == old.tobytes()
        assert not G.flags.writeable and cert.G is G
        assert cert.decomposition == tuple(zip(weights.tolist(), map(tuple, orders.tolist())))
        assert all(type(w) is float and all(type(j) is int for j in pi) for w, pi in cert.decomposition)


def test_given_G_and_decomposition_are_kept():
    G = np.array([[0.5, 0.5], [0.5, 0.5]])
    cert = OptimalityCertificate(G, [(0.5, [0, 1]), (np.float64(0.5), (1, 0))])
    assert cert.G.tobytes() == G.tobytes() and cert.G is not G and not cert.G.flags.writeable
    assert cert.decomposition == ((0.5, (0, 1)), (0.5, (1, 0)))
    with pytest.raises(ValueError):
        OptimalityCertificate("not a matrix", ())
