import numpy as np
import pytest

from rankwalk import (
    Minimizer,
    RegressionData,
    ScoreVector,
    active_pairs,
    cell_gradient,
    ggd_minimize,
    minimize,
    oracle_minimize,
    random_instance,
    residuals,
)
from rankwalk.loss import _tie_cut

# Narrow valley along the first axis: the two regions either side of it have
# almost parallel loss contours, so line-search descent crosses the valley
# floor in tiny increments while the walk exits through a region minimum.
VALLEY = RegressionData(np.array([[0.0, 0.0], [1.0, 20.0], [1.0, -20.0]]),
                        np.zeros(3))
VALLEY_ALPHA = [-1.0, 0.0, 1.0]
VALLEY_START = [1.0, 0.02]


def test_cell_gradient_worked(worked):
    data, alpha = worked
    np.testing.assert_array_equal(cell_gradient(data, alpha, [-2.0]), [-2.0])
    assert cell_gradient(data, alpha, [0.0]) is None  # tied residuals
    zero = ScoreVector([0.0, 0.0, 0.0])
    np.testing.assert_array_equal(cell_gradient(data, zero, [-2.0]), [0.0])


def test_ggd_worked_convergence(worked):
    data, alpha = worked
    out = ggd_minimize(data, alpha, beta0=[-2.0])
    assert abs(out.f - 1.0) < 1e-9
    assert out.trace.stop_reason == "stalled"
    assert not hasattr(out, "certificate")  # no optimality claim is made


def test_ggd_trace_monotone_and_consistent():
    rng = np.random.default_rng(19)
    for _ in range(40):
        data, alpha = random_instance(rng)
        for perturbation in ("random", "prolong"):
            out = ggd_minimize(data, alpha, perturbation=perturbation, max_iter=200)
            fv = out.trace.f_values
            assert all(b < a for a, b in zip(fv, fv[1:]))
            assert out.f == fv[-1]
            np.testing.assert_array_equal(out.beta, out.trace.points[-1])
            assert len(out.trace.points) == len(fv)


def test_ggd_never_beats_the_oracle():
    rng = np.random.default_rng(29)
    gaps = []
    for _ in range(40):
        data, alpha = random_instance(rng)
        reference = oracle_minimize(data, alpha)
        if reference.unbounded:
            continue
        out = ggd_minimize(data, alpha, max_iter=300)
        gaps.append(out.f - reference.value)
    assert gaps
    assert all(gap >= -1e-9 for gap in gaps)


def test_ggd_deterministic_under_seed():
    rng = np.random.default_rng(37)
    data, alpha = random_instance(rng)
    a = ggd_minimize(data, alpha, seed=123)
    b = ggd_minimize(data, alpha, seed=123)
    assert a.trace.f_values == b.trace.f_values
    assert a.beta.tobytes() == b.beta.tobytes()
    assert a.trace.stop_reason == b.trace.stop_reason


def test_ggd_unbounded_direction_stop():
    data = RegressionData(np.array([[1.0]]), np.array([0.0]))
    out = ggd_minimize(data, [1.0])
    assert out.trace.stop_reason == "unbounded_direction"
    assert out.trace.n_iterations == 1


def test_ggd_zero_gradient_stop():
    data = RegressionData(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    out = ggd_minimize(data, [0.0, 0.0])
    assert out.trace.stop_reason == "zero_gradient"


def test_ggd_stuck_on_permanent_ties():
    # identical rows keep every point tied, so no nudge can help
    data = RegressionData(np.array([[1.0], [1.0]]), np.array([0.0, 0.0]))
    out = ggd_minimize(data, [-1.0, 1.0])
    assert out.trace.stop_reason == "stuck_on_ties"
    assert out.trace.n_perturbations == 16


def test_ggd_zigzags_where_the_walk_exits():
    walk = minimize(VALLEY, VALLEY_ALPHA, beta0=VALLEY_START)
    assert isinstance(walk, Minimizer)
    assert abs(walk.f_opt) < 1e-12
    for perturbation in ("prolong", "random"):
        out = ggd_minimize(VALLEY, VALLEY_ALPHA, beta0=VALLEY_START,
                           perturbation=perturbation)
        assert out.trace.n_iterations > len(walk.trace)
        assert out.f >= walk.f_opt - 1e-12


def test_ggd_config_validation(worked):
    """The options are keyword arguments only, checked on entry in the
    order perturbation, seed, max_iter, and before the weights and the
    start."""
    data, alpha = worked
    with pytest.raises(ValueError, match="^unknown perturbation 'teleport'$"):
        ggd_minimize(data, [1.0], [1.0, 2.0], perturbation="teleport", seed=-1, max_iter=0)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        ggd_minimize(data, [1.0], [1.0, 2.0], seed=-1, max_iter=0)
    with pytest.raises(ValueError, match="^max_iter must be an integer"):
        ggd_minimize(data, [1.0], [1.0, 2.0], max_iter=0)
    with pytest.raises(TypeError):
        ggd_minimize(data, alpha, None, "random")


@pytest.mark.parametrize("field, value", [
    ("max_iter", 0), ("max_iter", 2.5), ("max_iter", float("nan")), ("max_iter", True),
    ("seed", -1), ("seed", 0.5),
])
def test_ggd_config_rejects_bad_counts(worked, field, value):
    """The iteration cap and the seed must be integers in range, or the fit
    would fail in ``range`` or in NumPy's generator."""
    data, alpha = worked
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ggd_minimize(data, alpha, **{field: value})


def test_ggd_config_accepts_numpy_integers(worked):
    data, alpha = worked
    assert ggd_minimize(data, alpha, seed=np.int64(3), max_iter=np.int32(5)).trace.n_iterations <= 5


@pytest.mark.parametrize("sign", ["positive", "negative", "mixed", "signed_zeros"])
def test_ggd_tie_tolerance_is_the_default(sign):
    """GGD cuts residuals it has sorted with ``np.sort`` by the walk's
    ``loss._tie_cut``; the tolerance and the cut must be those of the tie
    blocks of the same residuals, which sort them by ``np.argsort``, signed
    zeros included."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 40):
        e = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        if sign == "positive":
            e = np.abs(e) + 0.5
        elif sign == "negative":
            e = -np.abs(e) - 0.5
        elif sign == "signed_zeros":  # only zeros at n <= 2, else one entry of size 3 among them
            e = rng.choice([0.0, -0.0], n)
            if n > 2:
                e[rng.integers(n)] = rng.choice([3.0, -3.0])
        data = RegressionData(np.zeros((n, 1)), e)
        res = residuals(data, [0.0])
        ap = active_pairs(res)
        tie_tol, cut = _tie_cut(np.sort(res.e))
        assert tie_tol == ap.tie_tol and (cut == (np.diff(ap.label) == 1)).all()
