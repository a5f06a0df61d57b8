"""The cutting-plane search over the nontrivial tie blocks, which yields the
improving direction or the certificate, checked well past the sizes the
exhaustive oracle reaches."""

import numpy as np
import pytest

import rankwalk.certificate
import rankwalk.woa
from rankwalk import (
    LpOptimal,
    Minimizer,
    RegressionData,
    active_pairs,
    cell_lp,
    consistent_permutation,
    eval_loss,
    improving_direction,
    make_scores,
    minimize,
    residuals,
    solve_certificate,
    verify_certificate,
)

from test_cell_lp_reference import bench_cases
from tie_data import grid

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
    out = cell_lp(data, alpha, consistent_permutation(res))
    return out.point if isinstance(out, LpOptimal) else None


def pairs_at(data, beta):
    return active_pairs(residuals(data, beta))


def slope(data, alpha, ap, ell):
    """The directional derivative of the loss along ell at the point of
    ``ap``, by the rearrangement inequality: within each tie block the
    observations fall in order of x_j . ell, the largest first."""
    total = 0.0
    for b in range(int(ap.label[-1]) + 1):
        ranks = np.flatnonzero(ap.label == b)
        drop = sorted((-float(data.x[j] @ ell) for j in ap.order[ranks].tolist()))
        total += sum(float(alpha.alpha[ranks[0] + k]) * d for k, d in enumerate(drop))
    return total


def assert_descends_within_the_box(data, alpha, beta, ap, ell):
    """ell lies in the box |R ell|_inf <= 1 and the loss strictly descends
    along it."""
    assert np.abs(np.linalg.qr(data.x, mode="r") @ ell).max() <= 1.0 + 1e-9
    assert slope(data, alpha, ap, ell) < 0.0
    step = 1e-7 / max(1.0, float(np.abs(data.x @ ell).max()))
    assert eval_loss(data, alpha, beta + step * ell) < eval_loss(data, alpha, beta)


def test_exactly_one_system_solves_at_region_minima():
    rng = np.random.default_rng(11)
    directions = certificates = 0
    for data, alpha in cases():
        for _ in range(2):
            beta = region_minimum(data, alpha, rng.standard_normal(data.p))
            if beta is None:
                continue
            ap = pairs_at(data, beta)
            found = improving_direction(data, alpha, ap)
            cert = solve_certificate(data, alpha, ap)
            assert (found is None) != (cert is None)
            if found is not None:
                assert_descends_within_the_box(data, alpha, beta, ap, found)
                directions += 1
            else:
                assert verify_certificate(data, alpha, beta, cert).ok
                certificates += 1
    assert directions > 10 and certificates > 0


def test_minimizers_have_no_direction_and_a_certificate_on_the_realizable_pairs():
    for data, alpha in cases():
        out = minimize(data, alpha)
        assert isinstance(out, Minimizer)
        ap = pairs_at(data, out.beta_opt)
        assert improving_direction(data, alpha, ap) is None
        cert = solve_certificate(data, alpha, ap)
        assert cert is not None and cert.G.shape == (data.n, data.n)
        rows, cols = np.nonzero(np.abs(cert.G) > 1e-9)
        assert set(zip(rows.tolist(), cols.tolist())) <= ap.pairs
        assert verify_certificate(data, alpha, out.beta_opt, cert).ok
        assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok


def test_lp_columns_follow_the_tie_blocks(monkeypatch):
    """Every master LP of the search has p + 1 columns, one t for all the
    nontrivial tie blocks whatever their number K, where the unreduced
    systems had p + 2n and |pairs| and a master with one t per block had
    p + K.  The grid fits reach vertices with K >= 100 blocks: at n = 1000
    the Wilcoxon and van der Waerden walks, which the start step shortens,
    meet at most 85, so the grid has n = 1500."""
    shapes = []
    original = rankwalk.certificate._solve_by_dual

    def recording(c, A, b):
        shapes.append(len(c))
        assert A.shape[1] == len(c)
        return original(c, A, b)

    monkeypatch.setattr(rankwalk.certificate, "_solve_by_dual", recording)
    rng = np.random.default_rng(5)
    probed = 0
    for data, alpha in cases():
        beta = region_minimum(data, alpha, rng.standard_normal(data.p))
        if beta is None:
            continue
        ap = pairs_at(data, beta)
        for search in (improving_direction, solve_certificate):
            shapes.clear()
            search(data, alpha, ap)
            assert shapes and set(shapes) == {data.p + 1}
        if data.n >= 40:
            assert data.p + 1 < data.n < len(ap.pairs)
        probed += 1
    assert probed >= 12

    blocks = []
    descent_search = rankwalk.woa._descent_search

    def counting(data, a, ap, *args):
        blocks.append(len(ap._split[1]))
        return descent_search(data, a, ap, *args)

    monkeypatch.setattr(rankwalk.woa, "_descent_search", counting)
    data = grid(0, 1500, 4, 5)
    for kind in KINDS:
        alpha = make_scores(kind, data.n)
        shapes.clear()
        blocks.clear()
        out = minimize(data, alpha)
        assert isinstance(out, Minimizer)
        assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok
        assert shapes and set(shapes) == {data.p + 1}
        assert max(blocks) >= 100


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


def test_integer_grid_is_the_benchmark_generator():
    bench = bench_cases()
    for seed, n, p in ((0, 40, 2), (0, 24, 3), (5, 120, 3)):
        ours, theirs = integer_grid(np.random.default_rng(seed), n, p), bench.integer_grid(seed, n, p)
        np.testing.assert_array_equal(ours.x, theirs.x)
        np.testing.assert_array_equal(ours.y, theirs.y)


# Exact-tie instances the direction LP could not solve: with the LP, the two
# van der Waerden fits raised "pivot budget exhausted", the Wilcoxon fit took
# about 13 s in one degenerate LP and the sign fit ran for over 200 s.
@pytest.mark.parametrize("seed,n,p", [(0, 40, 2), (0, 24, 3)])
def test_van_der_waerden_integer_grid_reaches_a_verified_minimizer(seed, n, p):
    data = integer_grid(np.random.default_rng(seed), n, p)
    alpha = make_scores("van_der_waerden", n)
    out = minimize(data, alpha)
    assert isinstance(out, Minimizer)
    assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok


@pytest.mark.parametrize("kind,seed,n,p,f_opt", [
    ("wilcoxon", 0, 40, 2, 52.088259652010386),  # the Jaeckel pairwise-L1 minimum
    ("sign", 5, 120, 3, 133.0),  # the least-absolute-deviations minimum
])
def test_integer_grid_reaches_the_reference_minimum(kind, seed, n, p, f_opt):
    data = integer_grid(np.random.default_rng(seed), n, p)
    alpha = make_scores(kind, n)
    out = minimize(data, alpha)
    assert isinstance(out, Minimizer)
    assert out.f_opt == pytest.approx(f_opt, rel=1e-9)
    assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok
