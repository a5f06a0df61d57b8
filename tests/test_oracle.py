import numpy as np
import pytest

from rankwalk import (
    LinearProgram,
    LpOptimal,
    LpUnbounded,
    Minimizer,
    RegressionData,
    ScoreVector,
    consistent_permutation,
    enumerate_nonempty_cells,
    eval_loss_bruteforce,
    make_scores,
    minimize,
    oracle_minimize,
    random_instance,
    residuals,
)
from rankwalk.loss import _perm_table
from rankwalk.oracle import ENUMERATION_LIMIT, ORACLE_LIMIT

from reference_simplex import ref_solve_lp

KINDS = ("sign", "wilcoxon", "van_der_waerden")


def ref_oracle_minimize(data, alpha):
    """The envelope program as the free-variable simplex takes it, one
    (1, -g_pi) . (t, beta) >= c_pi row per pairing, rows with the same
    coefficients collapsed to the one with the largest threshold.  Returns
    None when unbounded, else the minimum value."""
    perms = _perm_table(data.n)
    grads = np.einsum("i,kip->kp", alpha.alpha, data.x[perms])
    consts = data.y[perms] @ alpha.alpha
    dominant: dict[tuple, float] = {}
    for k in range(perms.shape[0]):
        key = tuple(np.round(grads[k], 9))
        dominant[key] = max(consts[k], dominant.get(key, -np.inf))
    rows = tuple((np.concatenate([[1.0], -np.array(key)]), ">=", c) for key, c in dominant.items())
    objective = np.zeros(1 + data.p)
    objective[0] = 1.0
    out = ref_solve_lp(LinearProgram(objective, rows))
    if isinstance(out, LpUnbounded):
        return None
    assert isinstance(out, LpOptimal)
    return out.value


def continuous(seed, n, p):
    """x = [1, N(0,1)^(p-1)], y = x @ N(0,1)^p + t_2 noise: the benchmark's
    continuous recipe."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    y = x @ rng.standard_normal(p) + rng.standard_t(2, n)
    return RegressionData(x, y)


def test_oracle_worked(worked):
    data, alpha = worked
    out = oracle_minimize(data, alpha)
    assert not out.unbounded
    assert abs(out.value - 1.0) < 1e-9
    assert abs(out.point[0]) < 1e-9


def test_oracle_zero_weights(worked):
    data, _ = worked
    out = oracle_minimize(data, ScoreVector([0.0, 0.0, 0.0]))
    assert not out.unbounded
    assert abs(out.value) < 1e-9


def test_oracle_single_row_unbounded():
    data = RegressionData(np.array([[1.0]]), np.array([0.0]))
    out = oracle_minimize(data, ScoreVector([1.0]))
    assert out.unbounded
    assert out.value is None and out.point is None


def test_oracle_size_guard():
    n = ORACLE_LIMIT + 1
    data = RegressionData(np.zeros((n, 1)), np.zeros(n))
    with pytest.raises(ValueError):
        oracle_minimize(data, ScoreVector(np.zeros(n)))


def test_enumerate_cells_worked(worked):
    data, _ = worked
    cells = enumerate_nonempty_cells(data)
    assert sorted(cells) == [(0, 1, 2), (0, 2, 1), (2, 0, 1), (2, 1, 0)]
    for beta in (-2.0, -0.5, 0.5, 2.0, -1.0, 0.0, 1.0):
        res = residuals(data, [beta])
        assert consistent_permutation(res) in cells


def test_enumerate_cells_edges():
    two = RegressionData(np.array([[0.0], [1.0]]), np.array([0.0, 0.0]))
    assert sorted(enumerate_nonempty_cells(two)) == [(0, 1), (1, 0)]
    flat = RegressionData(np.ones((3, 1)), np.array([3.0, 1.0, 2.0]))
    assert enumerate_nonempty_cells(flat) == ((1, 2, 0),)  # ordering never changes
    big = RegressionData(np.zeros((ENUMERATION_LIMIT + 1, 1)), np.zeros(ENUMERATION_LIMIT + 1))
    with pytest.raises(ValueError):
        enumerate_nonempty_cells(big)


def test_random_instance_shape_and_ranges():
    rng = np.random.default_rng(1)
    for _ in range(100):
        data, alpha = random_instance(rng)
        assert 2 <= data.n <= 6 and 1 <= data.p <= 3
        assert alpha.n == data.n
        for arr in (data.x, data.y, alpha.alpha):
            assert np.all(arr == np.round(arr))
            assert arr.min() >= -3 and arr.max() <= 3
        assert np.all(np.diff(alpha.alpha) >= 0)


def walk_agrees_with_oracle(data, alpha) -> bool:
    """Same verdict and, when bounded, the same value; True when bounded."""
    walk = minimize(data, alpha)
    reference = oracle_minimize(data, alpha)
    if reference.unbounded:
        assert not isinstance(walk, Minimizer)
        return False
    assert isinstance(walk, Minimizer)
    assert abs(walk.f_opt - reference.value) <= 1e-7 * (1.0 + abs(reference.value))
    return True


def test_walk_agrees_with_oracle_small_sweep():
    rng = np.random.default_rng(271828)
    verdicts = [walk_agrees_with_oracle(*random_instance(rng)) for _ in range(60)]
    assert any(verdicts) and not all(verdicts)


def test_walk_visits_only_nonempty_cells():
    rng = np.random.default_rng(5050)
    for _ in range(30):
        data, alpha = random_instance(rng)
        cells = set(enumerate_nonempty_cells(data))
        walk = minimize(data, alpha)
        for it in walk.trace:
            assert it.pi in cells


def p_at_least_n_draws(rng, draws, n_max):
    """Integer instances with p >= n: the design can usually move the
    residuals anywhere, so most are unbounded."""
    for _ in range(draws):
        n = int(rng.integers(1, n_max + 1))
        p = int(rng.integers(n, n + 4))
        x = rng.integers(-2, 3, size=(n, p)).astype(float)
        y = rng.integers(-2, 3, size=n).astype(float)
        alpha = ScoreVector(rng.integers(-2, 3, size=n).astype(float))
        yield RegressionData(x, y), alpha


def test_oracle_agrees_with_the_walk_when_p_is_at_least_n():
    # n reaches 6; through the dual core no draw takes more than milliseconds.
    rng = np.random.default_rng(2718)
    bounded = sum(walk_agrees_with_oracle(data, alpha) for data, alpha in p_at_least_n_draws(rng, 300, 6))
    assert 30 < bounded < 270


def test_oracle_matches_the_free_variable_envelope_program():
    rng = np.random.default_rng(2718)
    draws = [random_instance(rng, n_range=(1, 5), p_range=(1, 4)) for _ in range(100)]
    draws += list(p_at_least_n_draws(rng, 200, 5))
    bounded = 0
    for data, alpha in draws:
        reference = ref_oracle_minimize(data, alpha)
        out = oracle_minimize(data, alpha)
        assert out.unbounded == (reference is None)
        if reference is not None:
            bounded += 1
            assert abs(out.value - reference) <= 1e-9 * (1.0 + abs(reference))
    assert 50 < bounded < len(draws) - 50


def test_walk_agrees_with_oracle_on_continuous_data_at_n_7_and_8():
    # 96 fits: n 7-8, p 1-4, four seeds each, every score kind.
    for n in (7, 8):
        for p in range(1, 5):
            for seed in range(4):
                data = continuous(1000 * n + 10 * p + seed, n, p)
                for kind in KINDS:
                    alpha = make_scores(kind, n)
                    reference = oracle_minimize(data, alpha)
                    walk = minimize(data, alpha)
                    assert not reference.unbounded and isinstance(walk, Minimizer)
                    tol = 1e-9 * (1.0 + abs(reference.value))
                    assert abs(walk.f_opt - reference.value) <= tol
                    assert abs(eval_loss_bruteforce(data, alpha, reference.point) - reference.value) <= tol
