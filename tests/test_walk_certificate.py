"""The walk's own certificate check against ``verify_certificate``.

``minimize`` checks the certificate of its descent search from the terms
alone, weights and a T x n array of orderings, with
``certificate._term_failures``; it builds no n x n array.  On the
minimizers of ``test_certificate_reference`` and on forgeries of their
terms, that check must reach the verifier's verdict and name only
conditions the verifier also fails.  The verifier reads the forged
certificate itself, so its G is the one the forged terms build; it may name
more, as ``support`` for an ordering that leaves its tie blocks, which the
check names ``decomposition_support``.
"""

import numpy as np
import pytest

from rankwalk import OptimalityCertificate, active_pairs, default_tie_tol, residuals, verify_certificate
from rankwalk.certificate import _term_failures
from rankwalk.model import sorted_scores

from test_certificate_reference import minimizers  # noqa: F401  -- the fixture

ALL = ("bistochastic", "support", "balance", "decomposition", "decomposition_support", "value")
NAMED = {  # what the check must name on each forgery, at least
    "off its tie block": {"decomposition_support", "value"},
    "repeated index": {"decomposition", "decomposition_support", "value"},
    "short ordering": {"decomposition", "decomposition_support", "value"},
    "weights short of 1": {"bistochastic", "decomposition"},
    "zero weight": {"decomposition"},
    "negative weight": {"decomposition"},
    "balance broken": {"balance"},
}


def forged_terms(weights, orders, ap, a, x):
    """(name, weights, orders) forgeries of one certificate's terms."""
    n = orders.shape[1]
    out = []
    if ap.label[0] != ap.label[-1]:
        moved = orders.copy()
        moved[0, [0, n - 1]] = moved[0, [n - 1, 0]]
        out.append(("off its tie block", weights, moved))
    repeated = orders.copy()
    repeated[0, 1] = repeated[0, 0]
    out.append(("repeated index", weights, repeated))
    out.append(("short ordering", weights, orders[:, :-1]))
    out.append(("weights short of 1", 0.999 * weights, orders))
    out.append(("zero weight", np.concatenate(([0.0], weights)), np.vstack([orders[:1], orders])))
    out.append(("negative weight", np.concatenate(([-0.25, 0.25], weights)), np.vstack([orders[:1], orders[:1], orders])))
    _, runs = ap._split
    for lo, hi in runs:  # a swap inside a tie block: still realizable
        swapped = orders.copy()
        swapped[0, [lo, hi]] = swapped[0, [hi, lo]]
        if abs(weights[0] * (a.alpha[lo] - a.alpha[hi])) * np.abs(x[orders[0, lo]] - x[orders[0, hi]]).max() > 1e-5:
            out.append(("balance broken", weights, swapped))
            break
    return out


def test_walk_check_reaches_the_verifiers_verdict(minimizers):  # noqa: F811
    seen = {}
    for data, alpha, fit in minimizers:
        a = sorted_scores(alpha, data.n)
        res = residuals(data, fit.beta_opt)
        ap = active_pairs(res, default_tie_tol(res))
        cert = fit.certificate
        weights, orders = cert._terms
        assert _term_failures(data, a, res, ap, cert) == ()
        assert verify_certificate(data, alpha, fit.beta_opt, cert).ok
        for name, w, o in forged_terms(weights, orders, ap, a, data.x):
            forged = OptimalityCertificate._of_terms(w, o)
            walk = _term_failures(data, a, res, ap, forged)
            if o.shape[1] != data.n:  # its G would be (n - 1) x (n - 1): the verifier reads the fit's G
                forged = OptimalityCertificate(cert.G, forged.decomposition)
            report = verify_certificate(data, alpha, fit.beta_opt, forged)
            assert NAMED[name] <= set(walk), (name, walk)
            assert not report.ok, name
            assert set(walk) <= set(report.failures), (name, walk, report.failures)
            assert list(walk) == [c for c in ALL if c in walk]
            seen[name] = seen.get(name, 0) + 1
    assert set(seen) == set(NAMED), seen
    assert min(seen.values()) >= 5, seen


def test_terms_build_the_old_loops_G(minimizers):  # noqa: F811
    for data, _, fit in minimizers:
        weights, orders = fit.certificate._terms
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
