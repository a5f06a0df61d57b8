import math

import numpy as np
import pytest

import rankwalk
from rankwalk import (
    Minimizer,
    RegressionData,
    ScoreVector,
    active_pairs,
    breakpoints,
    cell_gradient,
    consistent_permutation,
    eval_loss,
    eval_loss_bruteforce,
    ggd_minimize,
    minimize,
    residuals,
    verify_certificate,
)
from rankwalk.cli import main
from rankwalk.loss import Residuals, _tie_cut


def test_residuals_worked(worked):
    data, _ = worked
    np.testing.assert_array_equal(residuals(data, [0.0]).e, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(residuals(data, [1.0]).e, [0.0, 0.0, -2.0])
    np.testing.assert_array_equal(residuals(data, [-1.0]).e, [0.0, 2.0, 2.0])


def test_residuals_are_frozen_and_leave_the_callers_arrays_alone(worked):
    data, _ = worked
    beta = np.array([1.0])
    res = residuals(data, beta)
    assert not res.e.flags.writeable and not res.beta.flags.writeable
    assert beta.flags.writeable and not np.shares_memory(res.beta, beta)
    e = np.array([3.0, 1.0, 2.0])
    made = Residuals(e, beta)
    assert not made.e.flags.writeable and not made.beta.flags.writeable
    assert e.flags.writeable and beta.flags.writeable  # the constructor copies
    e[0] = beta[0] = 7.0
    np.testing.assert_array_equal(made.e, [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(made.beta, [1.0])


def test_residuals_rejects_bad_beta(worked):
    data, _ = worked
    with pytest.raises(ValueError):
        residuals(data, [1.0, 2.0])
    with pytest.raises(ValueError):
        residuals(data, [np.inf])


def _scalar_residuals(data, beta):
    # The row-by-row definition: each dot product summed left to right.
    e = np.empty(data.n)
    for i in range(data.n):
        acc = 0.0
        for k in range(data.p):
            acc += data.x[i, k] * beta[k]
        e[i] = data.y[i] - acc
    return e


def test_residuals_bit_identical_to_scalar_loop():
    rng = np.random.default_rng(29)
    for t in range(400):
        n, p = int(rng.integers(1, 25)), (1 if t % 4 == 0 else int(rng.integers(1, 7)))
        if t % 3 == 0:
            x = rng.integers(-5, 6, (n, p)).astype(float)
            y = rng.integers(-5, 6, n).astype(float)
            beta = rng.integers(-3, 4, p).astype(float)
        else:
            x = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-8, 8, p)
            y = rng.standard_t(2, n) * 10.0 ** rng.uniform(-8, 8)
            beta = rng.standard_normal(p) * 10.0 ** rng.uniform(-8, 8, p)
        if t % 5 == 0:
            beta[rng.integers(0, p)] = -0.0
        data = RegressionData(x, y)
        got = residuals(data, beta).e
        assert got.tobytes() == _scalar_residuals(data, beta).tobytes(), (n, p, t)


def test_residuals_add_the_columns_in_order_past_seven():
    """At p >= 8 too, and at n = 1, each residual adds its columns left to
    right from zero.  A NumPy reduction over the columns would not: along a
    contiguous axis it sums eight or more terms pairwise."""
    rng = np.random.default_rng(31)
    for t in range(200):
        n, p = (1 if t % 4 == 0 else int(rng.integers(2, 40))), int(rng.integers(8, 14))
        x = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-8, 8, p)
        beta = rng.standard_normal(p) * 10.0 ** rng.uniform(-8, 8, p)
        data = RegressionData(x, rng.standard_t(2, n))
        assert residuals(data, beta).e.tobytes() == _scalar_residuals(data, beta).tobytes(), (n, p, t)


def test_default_tie_tol(worked):
    """The tie tolerance at a point is 1e-9 (1 + max|e|), read from its tie blocks."""
    data, _ = worked
    assert active_pairs(residuals(data, [-1.0])).tie_tol == 1e-9 * 3.0


def test_every_layer_takes_its_default_tie_tolerance_from_loss(monkeypatch, worked, tmp_path, capsys):
    """The walk (at its start and at each region minimum), the verifier,
    the orderings, the tie blocks, the ray's breakpoints, ``rankwalk eval``
    and gradient descent (its ``cell_gradient`` and each tie test of
    ``ggd_minimize``) all read the tie formula ``loss._tie_tol_at`` at
    their own point, so the tie rule has one site to change."""
    data, alpha = worked
    seen = []
    formula = rankwalk.loss._tie_tol_at

    def spy(top):
        seen.append(top)
        return formula(top)

    monkeypatch.setattr(rankwalk.loss, "_tie_tol_at", spy)

    def reads(call):
        del seen[:]
        call()
        return seen[:]

    def top(res):
        return float(np.abs(res.e).max())

    # A fit of two iterations, from a start where observations 0 and 1 tie
    two = RegressionData(np.array([[3.0, -2.0], [0.0, -2.0], [-3.0, 2.0], [-3.0, -2.0]]),
                         np.array([0.0, 0.0, -3.0, 3.0]))
    range_scores = ScoreVector(np.array([-1.0, 0.0, 0.0, 1.0]))
    out = minimize(two, range_scores)
    assert isinstance(out, Minimizer) and len(out.trace) == 2
    assert reads(lambda: minimize(two, range_scores)) == [top(residuals(two, [0.0, 0.0]))] + [
        top(residuals(two, it.beta_star)) for it in out.trace]
    at_opt = residuals(two, out.beta_opt)
    assert reads(lambda: verify_certificate(two, range_scores, out.beta_opt, out.certificate)) == [top(at_opt)]
    res = residuals(data, [0.5])
    assert reads(lambda: consistent_permutation(res)) == [top(res)]
    assert reads(lambda: active_pairs(res)) == [top(res)]
    assert reads(lambda: breakpoints(data, res, [1.0])) == [top(res)]
    assert reads(lambda: cell_gradient(data, alpha, res)) == [top(res)]
    fitted = reads(lambda: ggd_minimize(data, alpha, beta0=[0.5]))
    assert fitted[0] == top(res) and len(fitted) >= 2
    ap = active_pairs(res)
    assert ap.tie_tol == formula(top(res))
    csv = tmp_path / "worked.csv"
    csv.write_text("y,x1\n0,0\n1,1\n0,2\n")
    assert reads(lambda: main(["eval", str(csv), "--beta", "0.5"])) == [top(res)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_the_tie_cut_refuses_residuals_whose_default_is_not_finite(bad):
    """The tie cut reads its tolerance from the sorted ends, where a NaN
    sorts last, so residuals holding NaN or an infinity give one that is
    not finite; the cut and the tie blocks refuse them, naming the residuals."""
    e = np.array([1.0, bad, -2.0, 0.5])
    message = "^the residuals must be finite to be cut into tie blocks$"
    with pytest.raises(ValueError, match=message):
        _tie_cut(np.sort(e))
    with pytest.raises(ValueError, match=message):
        active_pairs(Residuals(e, [0.0]))


def test_consistent_permutation_worked():
    res = Residuals(np.array([0.0, 1.0, 0.0]), np.zeros(1))
    assert consistent_permutation(res) == (0, 2, 1)
    res = Residuals(np.array([5.0, 4.0, 3.0]), np.zeros(1))
    assert consistent_permutation(res) == (2, 1, 0)
    res = Residuals(np.array([7.0, 7.0, 7.0]), np.zeros(1))
    assert consistent_permutation(res) == (0, 1, 2)


def test_consistent_permutation_rejects():
    res = Residuals(np.array([1.0, math.nan, 2.0]), np.zeros(1))
    with pytest.raises(ValueError, match="^the residuals must be finite to be cut into tie blocks$"):
        consistent_permutation(res)


def test_consistent_permutation_chain_property():
    """The returned ordering is nondecreasing up to the tie tolerance."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        e = rng.integers(-2, 3, size=n).astype(float)  # duplicates on purpose
        res = Residuals(e, np.zeros(1))
        tie_tol = active_pairs(res).tie_tol
        pi = consistent_permutation(res)
        assert sorted(pi) == list(range(n))
        assert all(e[pi[k + 1]] - e[pi[k]] >= -tie_tol for k in range(n - 1))


def test_eval_loss_worked(worked):
    data, alpha = worked
    assert eval_loss(data, alpha, [0.0]) == 1.0
    assert eval_loss(data, alpha, [1.0]) == 2.0
    assert eval_loss(data, ScoreVector([0.0, 0.0, 0.0]), [0.3]) == 0.0


def test_eval_loss_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        p = int(rng.integers(1, 4))
        data = RegressionData(rng.integers(-3, 4, size=(n, p)).astype(float),
                              rng.integers(-3, 4, size=n).astype(float))
        alpha = ScoreVector(rng.integers(-3, 4, size=n).astype(float))
        beta = rng.normal(size=p) * 2.0
        fast = eval_loss(data, alpha, beta)
        slow = eval_loss_bruteforce(data, alpha, beta)
        assert abs(fast - slow) <= 1e-10


def test_eval_loss_bruteforce_worked(worked):
    data, alpha = worked
    assert eval_loss_bruteforce(data, alpha, [0.0]) == 1.0
    tiny = RegressionData(np.array([[2.0]]), np.array([3.0]))
    assert eval_loss_bruteforce(tiny, ScoreVector([2.0]), [1.0]) == 2.0


def test_eval_loss_bruteforce_guard():
    data = RegressionData(np.zeros((9, 1)), np.zeros(9))
    with pytest.raises(ValueError):
        eval_loss_bruteforce(data, ScoreVector(np.zeros(9)), [0.0])


def test_eval_loss_invariant_under_weight_shuffle(worked):
    data, alpha = worked
    rng = np.random.default_rng(5)
    base = eval_loss(data, alpha, [0.7])
    for _ in range(20):
        shuffled = ScoreVector(rng.permutation(alpha.alpha))
        assert eval_loss(data, shuffled, [0.7]) == base


def test_eval_loss_convexity():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        data = RegressionData(rng.integers(-3, 4, size=(n, p)).astype(float),
                              rng.integers(-3, 4, size=n).astype(float))
        alpha = ScoreVector(rng.integers(-3, 4, size=n).astype(float))
        b1, b2 = rng.normal(size=p), rng.normal(size=p)
        t = float(rng.uniform())
        mid = eval_loss(data, alpha, t * b1 + (1.0 - t) * b2)
        assert mid <= t * eval_loss(data, alpha, b1) + (1.0 - t) * eval_loss(data, alpha, b2) + 1e-9


def test_active_pairs_worked():
    res = Residuals(np.array([0.0, 1.0, 0.0]), np.zeros(1))
    ap = active_pairs(res)
    assert ap.pairs == frozenset({(0, 0), (0, 2), (1, 0), (1, 2), (2, 1)})
    assert ap.order.tolist() == [0, 2, 1] and ap.label.tolist() == [0, 0, 1]
    assert ap.block_of.tolist() == [0, 1, 0] and ap.block_of.dtype == np.intp
    assert not ap.block_of.flags.writeable and ap.block_of is ap.block_of  # read-only, built once


def test_active_pairs_edge_cases():
    res = Residuals(np.array([1.0, 2.0, 3.0]), np.zeros(1))
    assert active_pairs(res).pairs == frozenset({(0, 0), (1, 1), (2, 2)})
    res = Residuals(np.array([4.0, 4.0, 4.0]), np.zeros(1))
    assert len(active_pairs(res).pairs) == 9


def test_active_pairs_block_structure():
    """Blocks are contiguous rank ranges numbered upward, the block of each
    observation is its rank's, the pair count is the sum of squared block
    sizes, and every consistent ordering stays inside the pairs."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        e = rng.integers(-2, 3, size=n).astype(float)
        res = Residuals(e, np.zeros(1))
        ap = active_pairs(res)
        steps = np.diff(ap.label)
        assert ap.label[0] == 0 and ((steps == 0) | (steps == 1)).all()
        assert sorted(ap.order.tolist()) == list(range(n))
        assert (ap.block_of[ap.order] == ap.label).all()
        assert int((np.bincount(ap.label) ** 2).sum()) == len(ap.pairs)
        pi = consistent_permutation(res)
        assert all((i, j) in ap.pairs for i, j in enumerate(pi))
