"""Generalized gradient descent baseline.

Follows the exact negative gradient inside a smooth region with an exact line
search over the ordering-change points, and nudges off tie points where the
loss is not differentiable.  Each exact line search ends on a breakpoint,
which is a tie, so almost every iteration starts with a nudge.  Candidate
steps that fail to improve the best loss are rejected, so the recorded loss
values only ever decrease.  The method carries no optimality test: it stops
on stall, budget, flatness, or an unbounded ray, and reports which.

The loop runs on arrays built once per fit (the columns of x and the sorted
weights) and computes each point once: an accepted candidate's residuals,
sorted for its loss, become the next iteration's start, and the gaps of that
sort give its tie test, which stands while the point does.  The results are
those of ``residuals``, ``cell_gradient``, ``breakpoints`` and
``line_search`` bit for bit.  It shares the walk's tie rule,
``loss._tie_cut``, and its ray search, ``woa._ray_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss import _check_tie_tol, _loss_sum, _residual_vector, _residuals_at, _sorted_loss, _tie_cut
from .model import RegressionData, _check_count, sorted_scores
from .woa import _ray_step

PERTURBATIONS = ("random", "prolong")
MAGNITUDE = 1e-4  # the first nudge's length, relative to 1 + |beta|
STOP_TOL = 1e-9  # a step that improves the loss by less than this stalls
STALL_WINDOW = 8  # consecutive stalled steps that stop the loop


@dataclass(frozen=True)
class GgdConfig:
    perturbation: str = "random"
    seed: int = 0
    max_iter: int = 1000
    tie_tol: float | None = None

    def __post_init__(self):
        if self.perturbation not in PERTURBATIONS:
            raise ValueError(f"unknown perturbation {self.perturbation!r}")
        if self.tie_tol is not None:
            _check_tie_tol(self.tie_tol)
        _check_count("seed", self.seed, 0)
        _check_count("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class GgdTrace:
    points: tuple[np.ndarray, ...]
    f_values: tuple[float, ...]
    stop_reason: str
    n_iterations: int
    n_perturbations: int


@dataclass(frozen=True)
class GgdResult:
    beta: np.ndarray
    f: float
    trace: GgdTrace


def cell_gradient(data: RegressionData, alpha, beta, tie_tol: float | None = None) -> np.ndarray | None:
    """Gradient of the loss where it is smooth, None on a tie point: where
    two sorted residuals lie within the tie tolerance.  ``beta`` may also be
    given as its Residuals; it is checked as ``loss._residuals_at`` checks a
    point."""
    a = sorted_scores(alpha, data.n)
    res = _residuals_at(data, beta, "beta")
    order = np.argsort(res.e, kind="stable")
    if not _tie_cut(res.e[order], tie_tol)[1].all():
        return None
    return -(a.alpha @ data.x[order])


def _norm(u: np.ndarray) -> float:
    """``np.linalg.norm`` of a float vector without its dispatch: sqrt(u . u),
    or ``math.hypot`` where an entry's square could overflow."""
    entries = u.tolist()
    return math.hypot(*entries) if max(map(abs, entries)) > 1e150 else math.sqrt(u.dot(u))


def _nudge(beta, last_dir, scale, rng, cfg) -> np.ndarray:
    size = MAGNITUDE * (1.0 + _norm(beta)) * scale
    if cfg.perturbation == "prolong":
        d = last_dir if last_dir is not None else np.ones_like(beta)
        return beta + size * d / _norm(d)
    u = rng.standard_normal(beta.shape[0])
    norm = _norm(u)
    if norm == 0.0:
        u = np.ones_like(beta)
        norm = _norm(u)
    return beta + size * u / norm


def ggd_minimize(data: RegressionData, alpha, beta0=None,
                 config: GgdConfig | None = None) -> GgdResult:
    """Best point found by perturbed exact-line-search gradient descent.

    No optimality claim is made for the result; the trace records the strictly
    decreasing losses of the accepted steps and why the loop stopped.  A ray
    with a breakpoint that overflows raises ValueError, and so do a gradient
    that overflows, a start whose loss overflows and a step whose loss
    overflows to -inf, which would be accepted; a step whose loss overflows
    to +inf or NaN is rejected.  No loss returned is infinite.
    """
    cfg = config or GgdConfig()
    a = sorted_scores(alpha, data.n)
    res = _residuals_at(data, beta0, "beta0", origin=True)
    beta, e = res.beta.copy(), res.e
    rng = np.random.default_rng(cfg.seed)
    x, y, w = data.x, data.y, a.alpha
    columns = np.ascontiguousarray(x.T)

    es = np.sort(e)
    f_best = _sorted_loss(es, w, "beta0")
    tt, cut = _tie_cut(es, cfg.tie_tol)
    order = np.argsort(e, kind="stable") if cut.all() else None  # None at a tie point
    points = [beta.copy()]
    f_values = [f_best]
    last_dir: np.ndarray | None = None
    stall = 0
    n_perturb = 0
    n_iter = 0
    stop_reason = "max_iter"

    for _ in range(cfg.max_iter):
        n_iter += 1
        # beta's residuals and tie test, kept from the step that reached it
        start, start_e, start_tt, start_order, scale = beta, e, tt, order, 1.0
        for _nudge_no in range(16):  # up to 16 nudges off the ties at beta
            if start_order is not None:
                break
            n_perturb += 1
            start = _nudge(beta, last_dir, scale, rng, cfg)
            start_e = _residual_vector(y, columns, start)
            scale *= 1.7
            start_order = np.argsort(start_e, kind="stable")
            start_tt, cut = _tie_cut(start_e[start_order], cfg.tie_tol)
            if not cut.all():
                start_order = None
        if start_order is None:
            stop_reason = "stuck_on_ties"
            break
        direction = w @ x[start_order]  # minus cell_gradient at start
        entries = direction.tolist()
        if not any(entries):
            stop_reason = "zero_gradient"
            break
        if not all(map(math.isfinite, entries)):
            raise ValueError("the gradient at the descent's current point is not finite")
        d = _ray_step(w, start_e, x @ direction, start_tt)
        if d is None:
            stop_reason = "unbounded_direction"
            break
        candidate = start + d * direction
        cand_e = _residual_vector(y, columns, candidate)
        cand_es = np.sort(cand_e)
        f_cand = _loss_sum(cand_es, w)  # eval_loss at the candidate; +inf and NaN are rejected
        if f_cand < f_best:
            if f_cand == -math.inf:
                raise ValueError("the loss at a step is not finite")
            improvement = f_best - f_cand
            beta, e, f_best, last_dir = candidate, cand_e, f_cand, direction
            tt, cut = _tie_cut(cand_es, cfg.tie_tol)
            order = np.argsort(e, kind="stable") if cut.all() else None
            points.append(candidate.copy())
            f_values.append(f_cand)
        else:
            improvement = 0.0
        if improvement < STOP_TOL:
            stall += 1
            if stall >= STALL_WINDOW:
                stop_reason = "stalled"
                break
        else:
            stall = 0

    trace = GgdTrace(tuple(points), tuple(f_values), stop_reason, n_iter, n_perturb)
    return GgdResult(beta, f_best, trace)
