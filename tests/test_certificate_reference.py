"""The array forms of ``active_pairs``, ``birkhoff_decompose`` and
``verify_certificate`` against the Python loops they replaced, kept here as
references: on seeded inputs, including forged certificates that break each
condition the gate checks, both must give exactly the same result.  Every
certificate, weights and a T x n array of orderings, is checked against a
loop over its terms that never builds G; of a certificate given as G, the
loop reads G only for the terms' recomposition deviation from it."""

import numpy as np
import pytest

from rankwalk import (
    CertificateReport,
    Minimizer,
    OptimalityCertificate,
    RegressionData,
    active_pairs,
    birkhoff_decompose,
    eval_loss,
    make_scores,
    minimize,
    residuals,
    verify_certificate,
)
from rankwalk.certificate import _perfect_matching
from rankwalk.model import sorted_scores

KINDS = ("sign", "wilcoxon", "van_der_waerden")


def reference_active_pairs(res):
    """The tie blocks as (lo, hi, observations) rank ranges, the block of
    each observation and the realizable pairs, by a loop: observations in
    (value, index) order, cut where the gap to the next exceeds the tie
    tolerance 1e-9 (1 + max|e|)."""
    e = res.e.tolist()
    tie_tol = 1e-9 * (1.0 + max(abs(v) for v in e))
    order = sorted(range(res.n), key=lambda j: (e[j], j))
    runs = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if e[cur] - e[prev] > tie_tol:
            runs.append([cur])
        else:
            runs[-1].append(cur)
    blocks = []
    pairs = set()
    block_of = [0] * res.n
    lo = 0
    for b, members in enumerate(runs):
        obs = tuple(sorted(members))
        hi = lo + len(obs) - 1
        blocks.append((lo, hi, obs))
        for i in range(lo, hi + 1):
            for j in obs:
                pairs.add((i, j))
        for j in obs:
            block_of[j] = b
        lo = hi + 1
    return tuple(blocks), tuple(block_of), frozenset(pairs)


def reference_perfect_matching(edges, n):
    owner = [-1] * n

    def augment(r, seen):
        for j in edges[r]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = r
                    return True
        return False

    for r in range(n):
        if not augment(r, [False] * n):
            return None
    pi = [-1] * n
    for j, r in enumerate(owner):
        pi[r] = j
    return pi


def reference_birkhoff(G, support_tol=1e-9):
    R = np.array(G, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {R.shape}")
    n = R.shape[0]
    dev = max(
        float(np.abs(R.sum(axis=0) - 1.0).max()),
        float(np.abs(R.sum(axis=1) - 1.0).max()),
        float(max(0.0, -R.min())),
    )
    if dev > 1e-7:
        raise ValueError(f"input is not bistochastic within 1e-7 (deviation {dev:.3g})")
    np.clip(R, 0.0, None, out=R)
    coarse = max(support_tol, 2e-7 * n)
    terms = []
    for _ in range(n * n + 2):
        top = float(R.max())
        if top <= support_tol:
            break
        edges = [list(np.flatnonzero(R[i] > support_tol)) for i in range(n)]
        pi = reference_perfect_matching(edges, n)
        if pi is None:
            if top <= coarse:
                break
            raise ValueError("support admits no perfect matching; input is not bistochastic")
        lam = float(min(R[i, pi[i]] for i in range(n)))
        terms.append((lam, tuple(pi)))
        for i in range(n):
            R[i, pi[i]] -= lam
            if R[i, pi[i]] < 1e-12:
                R[i, pi[i]] = 0.0
    else:
        raise ValueError("decomposition failed to terminate")
    return terms


def reference_verify(data, alpha, beta, cert, G=None):
    """A certificate, by a loop over its weights and orderings.  The terms
    recompose ``G``, the matrix it was built from, up to the deviation this
    loop finds (none when it was built from its terms)."""
    a = sorted_scores(alpha, data.n)
    n = data.n
    res = residuals(data, beta)
    *_, pairs = reference_active_pairs(res)
    weights, orders = cert.weights, cert.orders
    if not (weights.ndim == 1 and orders.shape == (weights.size, n) and orders.dtype.kind == "i"
            and all(sorted(pi) == list(range(n)) for pi in orders.tolist())):
        detail = f"orderings of shape {orders.shape}, expected {weights.size} permutations of {n}"
        return CertificateReport(False, (("shape", False, detail),), None)
    weights, orders = weights.tolist(), orders.tolist()

    mixed = np.zeros(n)
    recomposed = np.zeros((n, n))
    for w, pi in zip(weights, orders):
        for i, j in enumerate(pi):
            mixed[j] += w * a.alpha[i]
            recomposed[i, j] += w
    balance = float(np.abs(mixed @ data.x).max())
    conditions = [("balance", balance <= 1e-7, f"largest design-row imbalance {balance:.3g}")]

    if G is None:
        recomp_dev = 0.0
    elif not weights or np.shape(G) != (n, n):
        recomp_dev = float("inf")
    else:
        recomp_dev = float(np.abs(recomposed - G).max())
    lam_sum = sum(weights)
    ok = bool(weights) and all(w > 0.0 for w in weights) and abs(lam_sum - 1.0) <= 1e-9 and recomp_dev <= 1e-9
    conditions.append(("decomposition", ok, f"weight sum {lam_sum:.12g}, recomposition dev {recomp_dev:.3g}"))
    consistent = all((i, j) in pairs for pi in orders for i, j in enumerate(pi))
    conditions.append(("decomposition_support", consistent,
                       "every ordering realizable at beta" if consistent else "an ordering uses a non-realizable pair"))

    certified = None
    if weights and consistent:
        certified = float(sum(w * float(a.alpha @ data.y[pi]) for w, pi in zip(weights, orders)))
        f_here = eval_loss(data, a, beta)
        ok = abs(certified - f_here) <= 1e-7 * (1.0 + abs(f_here))
        conditions.append(("value", ok, f"certified {certified:.12g} vs loss {f_here:.12g}"))
    else:
        conditions.append(("value", False, "no usable decomposition to price"))

    return CertificateReport(all(good for _, good, _ in conditions), tuple(conditions), certified)


def continuous(rng, n, p):
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    return RegressionData(x, x @ rng.standard_normal(p) + rng.standard_t(2, n))


def integer_grid(rng, n, p):
    x = np.column_stack([np.ones(n), rng.integers(-2, 3, (n, p - 1))]).astype(float)
    return RegressionData(x, rng.integers(-2, 3, n).astype(float))


@pytest.fixture(scope="module")
def minimizers():
    """Seeded (data, scores, minimizer): continuous n = 12..40 and integer
    grids n = 8..14, at p = 1..3, over the three score kinds."""
    rng = np.random.default_rng(31)
    out = []
    for t in range(18):
        gen = continuous if t % 2 == 0 else integer_grid
        n = int(rng.integers(12, 41)) if gen is continuous else int(rng.integers(8, 15))
        data = gen(rng, n, int(rng.integers(1, 4)))
        alpha = make_scores(KINDS[t % 3], n)
        fit = minimize(data, alpha)
        if isinstance(fit, Minimizer):
            out.append((data, alpha, fit))
    assert len(out) >= 12
    return out


def forgeries(data, fit, rng):
    """(G, decomposition) pairs that break the gate's conditions one or
    several at a time."""
    n = data.n
    cert = fit.certificate
    G = np.array(cert.G)
    dec = cert.decomposition
    perm = tuple(rng.permutation(n).tolist())
    swap = np.eye(n)[list(perm)]
    out = [
        (G, ()),  # empty decomposition
        (G, ((0.0, dec[0][1]),) + dec),  # zero weight
        (G, ((-0.25, dec[0][1]), (0.25, dec[0][1])) + dec),  # negative weight
        (G, ((dec[0][0], dec[0][1][:-1]),) + dec[1:]),  # short ordering
        (G, ((dec[0][0], dec[0][1] + (n,)),) + dec[1:]),  # long ordering
        (G, ((dec[0][0], (0,) * n),) + dec[1:]),  # not a permutation
        (1.1 * G, dec),  # not bistochastic
        (G - 0.01 * (G > 0.5), dec),  # rows short of 1
        (0.5 * G + 0.5 * swap, dec),  # mass off the support
        (swap, ((1.0, perm),)),  # an unrealizable ordering
        (np.full((n, n), 1.0 / n), dec),  # uniform
        (G[:-1], dec),  # wrong shape
    ]
    if len(dec) > 1:
        out.append((G, dec[:-1]))  # weights short of 1
    nan_G = G.copy()
    nan_G[0, n - 1] = np.nan
    out.append((nan_G, dec))
    return out


def forged_terms(weights, orders, ap, a, x):
    """(name, weights, orders) forgeries of one walk certificate's terms."""
    n = orders.shape[1]
    out = []
    if ap.label[0] != ap.label[-1]:
        moved = orders.copy()
        moved[0, [0, n - 1]] = moved[0, [n - 1, 0]]
        out.append(("off its tie block", weights, moved))
    repeated = orders.copy()
    repeated[0, 1] = repeated[0, 0]
    out.append(("repeated index", weights, repeated))
    outside = orders.copy()
    outside[0, 0] = n
    out.append(("index out of range", weights, outside))
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


TERMS_NAMED = {  # what the report must name on each forgery of terms, at least
    "off its tie block": {"decomposition_support", "value"},
    "repeated index": {"shape"},
    "index out of range": {"shape"},
    "short ordering": {"shape"},
    "weights short of 1": {"decomposition"},
    "zero weight": {"decomposition"},
    "negative weight": {"decomposition"},
    "balance broken": {"balance"},
}


def test_active_pairs_matches_the_loop():
    """Integer residuals at three scales, some nudged by noise: exact ties
    make blocks of many ranks, and noise at 1e-6 breaks them at the small
    scales but stays within the tolerance at 1e6."""
    rng = np.random.default_rng(3)
    tied = 0
    for _ in range(150):
        n = int(rng.integers(1, 60))
        e = rng.integers(-4, 5, n).astype(float) * float(rng.choice([1e-3, 1.0, 1e6]))
        e += rng.choice([0.0, 1e-12, 1e-6]) * rng.standard_normal(n)
        res = residuals(RegressionData(np.ones((n, 1)), e), [0.0])
        got = active_pairs(res)
        want_blocks, want_block_of, want_pairs = reference_active_pairs(res)
        for b, (lo, hi, obs) in enumerate(want_blocks):
            assert (got.label[lo:hi + 1] == b).all() and sorted(got.order[lo:hi + 1].tolist()) == list(obs)
        alone, runs = got._split
        assert alone.tolist() == [lo for lo, hi, _ in want_blocks if lo == hi]
        assert runs == [(lo, hi) for lo, hi, _ in want_blocks if lo < hi]
        assert got.block_of.tolist() == list(want_block_of)
        assert got.pairs == want_pairs
        tied += any(lo + 2 <= hi for lo, hi, _ in want_blocks)  # a block of three ranks or more
    assert tied >= 50


def test_birkhoff_matches_the_loop(minimizers):
    rng = np.random.default_rng(8)
    matrices = [np.array(fit.certificate.G) for _, _, fit in minimizers]
    for _ in range(60):
        n = int(rng.integers(1, 12))
        k = int(rng.integers(1, 6))
        w = rng.dirichlet(np.ones(k))
        matrices.append(sum(wt * np.eye(n)[rng.permutation(n)] for wt in w))
    matrices.append(np.full((5, 5), 0.2) + 1e-10 * rng.standard_normal((5, 5)))
    for G in matrices:
        assert birkhoff_decompose(G) == reference_birkhoff(G)
    for bad in (1.1 * np.eye(3), np.ones((2, 3)), np.array([[0.5, 0.5], [0.6, 0.4]])):
        with pytest.raises(ValueError) as got:
            birkhoff_decompose(bad)
        with pytest.raises(ValueError) as want:
            reference_birkhoff(bad)
        assert str(got.value) == str(want.value)


def test_perfect_matching_matches_the_recursion():
    """Random bipartite graphs, sparse enough that augmenting paths backtrack
    and some have no perfect matching: the same assignment, or None."""
    rng = np.random.default_rng(21)
    found = missing = 0
    for _ in range(400):
        n = int(rng.integers(1, 40))
        edges = [sorted(rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False).tolist()) for _ in range(n)]
        got = _perfect_matching(edges, n)
        assert got == reference_perfect_matching(edges, n)
        found += got is not None
        missing += got is None
    assert found > 50 and missing > 50


def test_verify_certificate_matches_the_loop_on_genuine_and_forged_certificates(minimizers):
    """A forgery given as G is refused when built if its orderings differ in
    length, and otherwise fails verification, as the loop does."""
    rng = np.random.default_rng(12)
    failed = set()
    compared = rejected = 0
    for data, alpha, fit in minimizers:
        points = [fit.beta_opt, fit.beta_opt + 1e-3 * rng.standard_normal(data.p)]
        certs = [(fit.certificate, None)]
        for G, dec in forgeries(data, fit, rng):
            if len({len(pi) for _, pi in dec}) > 1:
                with pytest.raises(ValueError, match="differ in length"):
                    OptimalityCertificate(G, dec)
                rejected += 1
                continue
            cert = OptimalityCertificate(G, dec)
            assert not verify_certificate(data, alpha, fit.beta_opt, cert).ok
            certs.append((cert, G))
        for cert, G in certs:
            for beta in points:
                got = verify_certificate(data, alpha, beta, cert)
                want = reference_verify(data, alpha, beta, cert, G=G)
                assert got == want
                failed.update(got.failures)
                compared += 1
        assert verify_certificate(data, alpha, fit.beta_opt, fit.certificate).ok
    assert compared >= 12 * 13 * 2 and rejected >= 2
    # the forgeries reach every condition the gate reports
    assert failed == {"shape", "balance", "decomposition", "decomposition_support", "value"}


def test_verify_certificate_matches_the_term_loop_on_forged_terms(minimizers):
    """Forgeries of the walk's terms are read from the terms, never from G,
    and the report names what each one breaks."""
    seen = {}
    failed = set()
    for data, alpha, fit in minimizers:
        a = sorted_scores(alpha, data.n)
        res = residuals(data, fit.beta_opt)
        ap = active_pairs(res)
        weights, orders = fit.certificate.weights, fit.certificate.orders
        for name, w, o in forged_terms(weights, orders, ap, a, data.x):
            forged = OptimalityCertificate._of_terms(w, o)
            got = verify_certificate(data, alpha, fit.beta_opt, forged)
            assert got == reference_verify(data, alpha, fit.beta_opt, forged), name
            assert TERMS_NAMED[name] <= set(got.failures), (name, got.failures)
            assert "G" not in vars(forged) and "decomposition" not in vars(forged)
            failed.update(got.failures)
            seen[name] = seen.get(name, 0) + 1
    assert set(seen) == set(TERMS_NAMED), seen
    assert min(seen.values()) >= 5, seen
    assert failed == {"shape", "balance", "decomposition", "decomposition_support", "value"}
