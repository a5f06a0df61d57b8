import numpy as np
import pytest

from rankwalk import (
    Minimizer,
    RegressionData,
    consistent_permutation,
    enumerate_nonempty_cells,
    minimize,
    normalize_scores,
    oracle_minimize,
    random_instance,
    residuals,
)

TIE = 1e-9


def test_oracle_worked(worked):
    data, alpha = worked
    out = oracle_minimize(data, alpha)
    assert not out.unbounded
    assert abs(out.value - 1.0) < 1e-9
    assert abs(out.point[0]) < 1e-9


def test_oracle_zero_weights(worked):
    data, _ = worked
    out = oracle_minimize(data, normalize_scores([0.0, 0.0, 0.0]))
    assert not out.unbounded
    assert abs(out.value) < 1e-9


def test_oracle_single_row_unbounded():
    data = RegressionData(np.array([[1.0]]), np.array([0.0]))
    out = oracle_minimize(data, normalize_scores([1.0]))
    assert out.unbounded
    assert out.value is None and out.point is None


def test_oracle_size_guard():
    data = RegressionData(np.zeros((8, 1)), np.zeros(8))
    with pytest.raises(ValueError):
        oracle_minimize(data, normalize_scores(np.zeros(8)))


def test_enumerate_cells_worked(worked):
    data, _ = worked
    cells = enumerate_nonempty_cells(data)
    assert sorted(cells) == [(0, 1, 2), (0, 2, 1), (2, 0, 1), (2, 1, 0)]
    for beta in (-2.0, -0.5, 0.5, 2.0, -1.0, 0.0, 1.0):
        res = residuals(data, [beta])
        assert consistent_permutation(res, TIE) in cells


def test_enumerate_cells_edges():
    two = RegressionData(np.array([[0.0], [1.0]]), np.array([0.0, 0.0]))
    assert sorted(enumerate_nonempty_cells(two)) == [(0, 1), (1, 0)]
    flat = RegressionData(np.ones((3, 1)), np.array([3.0, 1.0, 2.0]))
    assert enumerate_nonempty_cells(flat) == ((1, 2, 0),)  # ordering never changes
    big = RegressionData(np.zeros((7, 1)), np.zeros(7))
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
        for it in walk.trace.iterations:
            assert it.pi in cells


def test_oracle_agrees_with_the_walk_when_p_is_at_least_n():
    # With p >= n the design can usually move the residuals anywhere, so most
    # draws are unbounded.  n stops at 5 to keep the sweep to about a second:
    # the oracle's simplex can take seconds on a single n = 6 draw.
    rng = np.random.default_rng(2718)
    bounded = 0
    for _ in range(300):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(n, n + 4))
        x = rng.integers(-2, 3, size=(n, p)).astype(float)
        y = rng.integers(-2, 3, size=n).astype(float)
        alpha = normalize_scores(rng.integers(-2, 3, size=n).astype(float))
        bounded += walk_agrees_with_oracle(RegressionData(x, y), alpha)
    assert 30 < bounded < 270
