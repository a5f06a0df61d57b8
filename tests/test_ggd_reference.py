"""Gradient descent against the loop it was tuned from.

``ref_ggd_minimize`` is the descent loop as it stood before it kept the
residuals of its accepted point: it calls the public ``cell_gradient``,
``breakpoints``, ``line_search`` and ``eval_loss`` and recomputes the
residuals of every point it starts from.  ``ggd_minimize`` must return the
same ``GgdResult`` byte for byte (beta, f, every point and loss of the
trace, the stop reason and both counts), or raise the same error, on the
benchmark's ``ggd-line`` fits and on shapes that workload leaves out (exact
ties, and continuous data at p = 4 and 6), on both perturbations and an explicit tie
tolerance, at each stop reason, on a ray whose residuals overflow, and on a
gradient and a loss that overflow.
"""

import dataclasses

import numpy as np
import pytest

import rankwalk.ggd
from rankwalk import (
    GgdConfig,
    GgdResult,
    GgdTrace,
    RegressionData,
    ScoreVector,
    breakpoints,
    cell_gradient,
    default_tie_tol,
    eval_loss,
    ggd_minimize,
    line_search,
    make_scores,
    random_instance,
    residuals,
)
from rankwalk.ggd import _nudge
from rankwalk.model import sorted_scores

from test_cell_lp_reference import bench_cases


def ref_ggd_minimize(data, alpha, beta0=None, config=None):
    cfg = config or GgdConfig()
    a = sorted_scores(alpha, data.n)
    beta = np.zeros(data.p) if beta0 is None else np.array(beta0, dtype=float).ravel()
    if beta.shape[0] != data.p or not np.isfinite(beta).all():
        raise ValueError("beta0 must be a finite vector of width p")
    rng = np.random.default_rng(cfg.seed)

    try:
        f_best = eval_loss(data, a, beta)
    except ValueError as exc:  # the start is beta0 to ggd_minimize
        raise ValueError(str(exc).replace("at beta ", "at beta0 ")) from None
    points = [beta.copy()]
    f_values = [f_best]
    last_dir = None
    stall = 0
    n_perturb = 0
    n_iter = 0
    stop_reason = "max_iter"

    for _ in range(cfg.max_iter):
        n_iter += 1
        start = beta
        res = residuals(data, start)
        grad = cell_gradient(data, a, res, cfg.tie_tol)
        if grad is None:
            scale = 1.0
            for _attempt in range(16):
                n_perturb += 1
                start = _nudge(beta, last_dir, scale, rng, cfg)
                res = residuals(data, start)
                grad = cell_gradient(data, a, res, cfg.tie_tol)
                if grad is not None:
                    break
                scale *= 1.7
            if grad is None:
                stop_reason = "stuck_on_ties"
                break
        if float(np.abs(grad).max()) == 0.0:
            stop_reason = "zero_gradient"
            break
        if not np.isfinite(grad).all():
            raise ValueError("the gradient at the descent's current point is not finite")
        direction = -grad
        tt = default_tie_tol(res) if cfg.tie_tol is None else cfg.tie_tol
        bps = breakpoints(data, res, direction, tt)
        if bps.steps.size == 0:
            stop_reason = "unbounded_direction"
            break
        d = line_search(data, a, res, direction, bps)
        candidate = start + d * direction
        try:
            f_cand = eval_loss(data, a, candidate)
        except ValueError:  # residuals that overflow sum past the largest float too
            with np.errstate(over="ignore", invalid="ignore"):
                f_cand = float(np.sort(residuals(data, candidate).e) @ a.alpha)
            if f_cand == -np.inf:  # +inf and NaN are rejected below, -inf would be accepted
                raise ValueError("the loss at a step is not finite") from None
        if f_cand < f_best:
            improvement = f_best - f_cand
            beta = candidate
            f_best = f_cand
            last_dir = direction
            points.append(candidate.copy())
            f_values.append(f_cand)
        else:
            improvement = 0.0
        if improvement < 1e-9:
            stall += 1
            if stall >= 8:
                stop_reason = "stalled"
                break
        else:
            stall = 0

    trace = GgdTrace(tuple(points), tuple(f_values), stop_reason, n_iter, n_perturb)
    return GgdResult(beta, f_best, trace)


def same(a, b) -> bool:
    """Bit-identical: equal types, array bytes, dtypes, shapes and write
    flags, and equal float reprs."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes() and a.flags.writeable == b.flags.writeable)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return isinstance(b, float) and repr(a) == repr(b)
    return type(a) is type(b) and a == b


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_fit(data, alpha, beta0=None, config=None):
    with np.errstate(over="ignore"):
        want = outcome(ref_ggd_minimize, data, alpha, beta0, config)
        got = outcome(ggd_minimize, data, alpha, beta0, config)
    assert same(got, want), (got, want)
    return got


# Shapes the ggd-line workload does not fit, as (generator, n, p), each with
# every score kind: exact ties, and continuous data at p = 4 and 6.
MORE_SHAPES = (("integer_grid", 12, 2), ("integer_grid", 12, 3), ("integer_grid", 18, 2), ("integer_grid", 18, 3),
               ("continuous", 40, 4), ("continuous", 30, 6))


def test_ggd_line_fits_match_the_reference():
    cases = bench_cases()
    wl = cases.WORKLOADS["ggd-line"]
    reasons = set()
    for seed in (0, 1):
        for rnd in range(4):
            for case in cases.build_round(wl, seed, rnd):
                reasons.add(assert_same_fit(case.data, case.alpha).trace.stop_reason)
        for generator, n, p in MORE_SHAPES:
            data = getattr(cases, generator)(seed, n, p)
            for kind in cases.KINDS:
                got = assert_same_fit(data, make_scores(kind, n))
                assert isinstance(got, GgdResult), got
                reasons.add(got.trace.stop_reason)
    assert reasons >= {"stalled", "max_iter"}


@pytest.mark.parametrize("config", [GgdConfig(max_iter=150), GgdConfig(perturbation="prolong", seed=5, max_iter=150),
                                    GgdConfig(tie_tol=1e-3, max_iter=150), GgdConfig(tie_tol=0.0, seed=2)],
                         ids=["random", "prolong", "tie_tol", "tie_tol_zero"])
def test_seeded_instances_match_the_reference(config):
    rng = np.random.default_rng(41)
    reasons = set()
    for t in range(60):
        data, alpha = random_instance(rng, n_range=(2, 9), p_range=(1, 3))
        beta0 = None if t % 2 else rng.integers(-2, 3, data.p).astype(float)
        got = assert_same_fit(data, alpha, beta0, config)
        if isinstance(got, GgdResult):
            reasons.add(got.trace.stop_reason)
    assert reasons == {"stalled", "max_iter", "zero_gradient", "unbounded_direction", "stuck_on_ties"}


STOPS = {
    "stalled": (RegressionData(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 0.0])),
                ScoreVector(np.array([-1.0, 0.0, 1.0])), [-2.0], GgdConfig()),
    "zero_gradient": (RegressionData(np.array([[0.0], [1.0]]), np.array([0.0, 1.0])),
                      ScoreVector(np.zeros(2)), None, GgdConfig()),
    "unbounded_direction": (RegressionData(np.array([[1.0]]), np.array([0.0])),
                            ScoreVector(np.array([1.0])), None, GgdConfig()),
    "stuck_on_ties": (RegressionData(np.array([[1.0], [1.0]]), np.zeros(2)),
                      ScoreVector(np.array([-1.0, 1.0])), None, GgdConfig(perturbation="prolong")),
}


@pytest.mark.parametrize("reason", sorted(STOPS) + ["max_iter"])
def test_each_stop_reason_matches_the_reference(reason):
    if reason == "max_iter":
        cases = bench_cases()
        case = cases.build_round(cases.WORKLOADS["ggd-line"], 0, 0)[2]
        data, alpha, beta0, config = case.data, case.alpha, None, GgdConfig(max_iter=7)
    else:
        data, alpha, beta0, config = STOPS[reason]
    assert assert_same_fit(data, alpha, beta0, config).trace.stop_reason == reason


def test_overflowing_residuals_along_the_ray_match_the_reference(monkeypatch):
    # Rank 1 holds the observation with x = 1e302 under a zero weight, so the
    # gradient stays small, but the pair (0, 1) ties at a step near 1e8 and
    # that observation's residual overflows there: the line search takes
    # its lexsort branch, each step is rejected and the loop stalls.
    data = RegressionData(np.array([[1.0], [1.0 + 1e-8], [1e302], [2.0]]), np.array([0.0, 1.0, 0.5, 3.0]))
    alpha = ScoreVector(np.array([-1.0, 0.0, 0.0, 1.0]))
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    got = assert_same_fit(data, alpha)
    assert got.trace.stop_reason == "stalled"
    assert calls


def test_an_overflowing_gradient_raises_as_the_reference_does():
    data = RegressionData(np.array([[1e308], [1.5e308], [0.0]]), np.array([0.0, 1.0, 2.0]))
    got = assert_same_fit(data, ScoreVector(np.ones(3)))
    assert got == "ValueError: the gradient at the descent's current point is not finite"


def test_an_overflowing_loss_raises_as_the_reference_does():
    data = RegressionData(np.array([[1.0], [2.0]]), np.array([1e308, 1.5e308]))
    got = assert_same_fit(data, ScoreVector(np.ones(2)))
    assert got == "ValueError: the loss at beta0 is not finite"


@pytest.mark.parametrize("overflow", [np.inf, np.nan, -np.inf])
def test_a_step_whose_loss_overflows_is_refused_only_where_it_would_be_accepted(monkeypatch, overflow):
    """A step's loss summed past the largest float to +inf or NaN is
    rejected, as a step that does not descend is, and the descent goes on
    to the same answer one iteration later; -inf would be accepted and
    returned, and is refused."""
    cases = bench_cases()
    case = cases.build_round(cases.WORKLOADS["ggd-line"], 0, 0)[0]
    want = ggd_minimize(case.data, case.alpha)
    assert len(want.trace.f_values) > 1
    loss_sum, calls = rankwalk.ggd._loss_sum, []

    def first_overflows(es, alpha):
        calls.append(1)
        return overflow if len(calls) == 1 else loss_sum(es, alpha)

    monkeypatch.setattr(rankwalk.ggd, "_loss_sum", first_overflows)
    if overflow == -np.inf:
        with pytest.raises(ValueError, match="^the loss at a step is not finite$"):
            ggd_minimize(case.data, case.alpha)
        return
    got = ggd_minimize(case.data, case.alpha)
    assert got.f == want.f and got.trace.f_values == want.trace.f_values
    assert got.trace.n_iterations == want.trace.n_iterations + 1
