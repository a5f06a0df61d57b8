"""The direction and certificate systems restricted to the nontrivial tie
blocks, checked well past the sizes the exhaustive oracle reaches."""

import numpy as np
import pytest

import rankwalk.certificate
import rankwalk.woa
from rankwalk import (
    LpOptimal,
    Minimizer,
    OptimalityCertificate,
    RegressionData,
    active_pairs,
    birkhoff_decompose,
    cell_lp,
    consistent_permutation,
    default_tie_tol,
    improving_direction,
    make_scores,
    minimize,
    residuals,
    solve_certificate,
    verify_certificate,
)
from rankwalk.loss import fold_singletons

KINDS = ("sign", "wilcoxon", "van_der_waerden")


def continuous(rng, n, p):
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    return RegressionData(x, x @ rng.standard_normal(p) + rng.standard_t(2, n))


def integer_grid(rng, n, p):
    x = np.column_stack([np.ones(n), rng.integers(-2, 3, (n, p - 1))]).astype(float)
    return RegressionData(x, rng.integers(-2, 3, n).astype(float))


def cases():
    """Seeded (data, scores) pairs: continuous n = 40..80 at p = 2..4 and
    integer-grid ties at n = 12..18."""
    rng = np.random.default_rng(7)
    out = []
    for t in range(9):
        n, p = int(rng.integers(40, 81)), int(rng.integers(2, 5))
        out.append((continuous(rng, n, p), make_scores(KINDS[t % 3], n)))
    for t in range(9):
        n, p = int(rng.integers(12, 19)), int(rng.integers(2, 4))
        out.append((integer_grid(rng, n, p), make_scores(KINDS[t % 3], n)))
    return out


def region_minimum(data, alpha, beta):
    """The minimum of the region holding ``beta``: a vertex, so it carries
    the ties that make both systems nontrivial."""
    res = residuals(data, beta)
    out = cell_lp(data, alpha, consistent_permutation(res, default_tie_tol(res)))
    return out.point if isinstance(out, LpOptimal) else None


def pairs_at(data, beta):
    res = residuals(data, beta)
    return active_pairs(res, default_tie_tol(res))


def assert_full_system(data, alpha, ap, found, strategy):
    """The length-n r (by rank) and s (by observation) satisfy every row of
    the unreduced system, one per realizable pair, and its anchor."""
    ell, r, s = found
    assert r.shape == (data.n,) and s.shape == (data.n,)
    for i, j in ap.pairs:
        lhs = alpha.alpha[i] * float(data.x[j] @ ell) + r[i] + s[j]
        assert lhs >= -1e-7 * (1.0 + abs(r[i]) + abs(s[j])), (i, j, lhs)
    total = r.sum() + s.sum()
    if strategy == "first_feasible":
        assert total == pytest.approx(-1.0, abs=1e-12)
    else:
        assert total < -1e-7 and np.abs(ell).max() <= 1.0 + 1e-9


@pytest.mark.parametrize("strategy", rankwalk.woa.DIRECTION_STRATEGIES)
def test_exactly_one_system_solves_at_region_minima(strategy):
    rng = np.random.default_rng(11)
    directions = 0
    for data, alpha in cases():
        for _ in range(2):
            beta = region_minimum(data, alpha, rng.standard_normal(data.p))
            if beta is None:
                continue
            ap = pairs_at(data, beta)
            found = improving_direction(data, alpha, ap, strategy=strategy)
            G = solve_certificate(data, alpha, ap)
            assert (found is None) != (G is None)
            if found is not None:
                assert_full_system(data, alpha, ap, found, strategy)
                directions += 1
    assert directions > 10


def test_minimizers_have_no_direction_and_a_certificate_on_the_realizable_pairs():
    for data, alpha in cases():
        out = minimize(data, alpha)
        assert isinstance(out, Minimizer)
        ap = pairs_at(data, out.beta_opt)
        for strategy in rankwalk.woa.DIRECTION_STRATEGIES:
            assert improving_direction(data, alpha, ap, strategy=strategy) is None
        G = solve_certificate(data, alpha, ap)
        assert G is not None and G.shape == (data.n, data.n)
        rows, cols = np.nonzero(np.abs(G) > 1e-9)
        assert set(zip(rows.tolist(), cols.tolist())) <= ap.pairs
        cert = OptimalityCertificate(G, tuple(birkhoff_decompose(G)))
        assert verify_certificate(data, alpha, out.beta_opt, cert).ok
        assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok


def test_lp_columns_follow_the_tie_blocks(monkeypatch):
    """Every LP the two systems pose has at most p + 2 * (block ranks)
    columns for a direction and (sum of squared block sizes) for a
    certificate, where the unreduced systems had p + 2n and |pairs|."""
    shapes = []

    def recording(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            if name == "solve_lp":
                shapes.append(len(args[0].objective))
            else:
                shapes.append(kwargs["nvars"])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (rankwalk.woa, rankwalk.certificate):
        recording(module, "find_feasible")
    recording(rankwalk.woa, "solve_lp")

    rng = np.random.default_rng(5)
    probed = 0
    for data, alpha in cases():
        beta = region_minimum(data, alpha, rng.standard_normal(data.p))
        if beta is None:
            continue
        ap = pairs_at(data, beta)
        fold = fold_singletons(data, alpha, ap)
        sizes = [len(blk.observations) for blk in ap.blocks if len(blk.observations) > 1]
        assert fold.width == sum(sizes)
        for strategy in rankwalk.woa.DIRECTION_STRATEGIES:
            shapes.clear()
            improving_direction(data, alpha, ap, strategy=strategy)
            assert shapes and max(shapes) <= data.p + 2 * sum(sizes)
        shapes.clear()
        solve_certificate(data, alpha, ap)
        assert all(nv <= sum(k * k for k in sizes) for nv in shapes)
        if data.n >= 40:
            assert data.p + 2 * sum(sizes) < data.n < len(ap.pairs)
        probed += 1
    assert probed >= 12


def test_wilcoxon_n30_p6_reaches_a_verified_minimizer():
    """This instance used to stop with 'phase 1 reported unbounded' inside
    the full-size direction LP."""
    rng = np.random.default_rng(20)
    n, p = 30, 6
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    data = RegressionData(x, x @ rng.standard_normal(p) + rng.standard_t(2, n))
    alpha = make_scores("wilcoxon", n)
    out = minimize(data, alpha)
    assert isinstance(out, Minimizer)
    assert out.f_opt == pytest.approx(31.868943023356728, rel=1e-9)
    assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok


def test_van_der_waerden_integer_grid_n18_p3_reaches_a_verified_minimizer():
    """Every observation of this instance sits in a nontrivial tie block at
    one region minimum (sizes 3, 3, 5, 2, 5).  Its direction LP used to
    exhaust the pivot budget while phase 1 carried an artificial for every
    ">= 0" pair row."""
    data = integer_grid(np.random.default_rng(14), 18, 3)
    alpha = make_scores("van_der_waerden", 18)
    out = minimize(data, alpha)
    assert isinstance(out, Minimizer)
    assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok
