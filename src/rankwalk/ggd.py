"""Generalized gradient descent baseline.

Follows the exact negative gradient inside a smooth region with an exact line
search over the ordering-change points, and nudges off tie points where the
loss is not differentiable.  Each exact line search ends on a breakpoint,
which is a tie, so almost every iteration starts with a nudge.  Candidate
steps that fail to improve the best loss are rejected, so the recorded loss
values only ever decrease.  The method carries no optimality test: it stops
on stall, budget, flatness, or an unbounded ray, and reports which.

Each point's residuals are computed once: those of an accepted candidate
become the next iteration's start, and the loss and tie tolerance are read
from them.  The ray is searched with the array core behind ``breakpoints``
and ``line_search`` (``woa._steps`` and ``woa._line_search``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss import _as_residuals, _check_tie_tol, default_tie_tol, residuals
from .model import RegressionData, sorted_scores
from .woa import _direction, _line_search, _steps

PERTURBATIONS = ("random", "prolong")


@dataclass(frozen=True)
class GgdConfig:
    perturbation: str = "random"
    magnitude: float = 1e-4
    seed: int = 0
    max_iter: int = 1000
    stop_tol: float = 1e-9
    stall_window: int = 8
    tie_tol: float | None = None
    lp_tol: float = 1e-9

    def __post_init__(self):
        if self.perturbation not in PERTURBATIONS:
            raise ValueError(f"unknown perturbation {self.perturbation!r}")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.magnitude, self.stop_tol, self.lp_tol)):
            raise ValueError("magnitude, stop_tol and lp_tol must be finite and positive")
        if self.tie_tol is not None:
            _check_tie_tol(self.tie_tol)
        if self.max_iter < 1 or self.stall_window < 1:
            raise ValueError("max_iter and stall_window must be positive")


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
    given as its Residuals."""
    a = sorted_scores(alpha, data.n)
    res = _as_residuals(data, beta)
    if tie_tol is None:
        tie_tol = default_tie_tol(res)
    else:
        _check_tie_tol(tie_tol)
    order = np.argsort(res.e, kind="stable")
    es = res.e[order]
    if not (es[1:] - es[:-1] > tie_tol).all():
        return None
    return -(a.alpha @ data.x[order])


def _nudge(beta, last_dir, scale, rng, cfg) -> np.ndarray:
    size = cfg.magnitude * (1.0 + float(np.linalg.norm(beta))) * scale
    if cfg.perturbation == "prolong":
        d = last_dir if last_dir is not None else np.ones_like(beta)
        return beta + size * d / float(np.linalg.norm(d))
    u = rng.standard_normal(beta.shape[0])
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        u = np.ones_like(beta)
        norm = float(np.linalg.norm(u))
    return beta + size * u / norm


def ggd_minimize(data: RegressionData, alpha, beta0=None,
                 config: GgdConfig | None = None) -> GgdResult:
    """Best point found by perturbed exact-line-search gradient descent.

    No optimality claim is made for the result; the trace records the strictly
    decreasing losses of the accepted steps and why the loop stopped.
    """
    cfg = config or GgdConfig()
    a = sorted_scores(alpha, data.n)
    beta = np.zeros(data.p) if beta0 is None else np.array(beta0, dtype=float).ravel()
    if beta.shape[0] != data.p or not np.isfinite(beta).all():
        raise ValueError("beta0 must be a finite vector of width p")
    rng = np.random.default_rng(cfg.seed)

    res = residuals(data, beta)
    f_best = float(np.sort(res.e) @ a.alpha)
    points = [beta.copy()]
    f_values = [f_best]
    last_dir: np.ndarray | None = None
    stall = 0
    n_perturb = 0
    n_iter = 0
    stop_reason = "max_iter"

    for _ in range(cfg.max_iter):
        n_iter += 1
        start, scale = res, 1.0  # the residuals of beta, kept from the step that reached it
        for nudge in range(17):  # beta itself, then up to 16 nudges off its ties
            if nudge:
                n_perturb += 1
                start = residuals(data, _nudge(beta, last_dir, scale, rng, cfg))
                scale *= 1.7
            tt = default_tie_tol(start) if cfg.tie_tol is None else cfg.tie_tol
            grad = cell_gradient(data, a, start, tt)
            if grad is not None:
                break
        if grad is None:
            stop_reason = "stuck_on_ties"
            break
        if float(np.abs(grad).max()) == 0.0:
            stop_reason = "zero_gradient"
            break
        direction = _direction(data, -grad)
        sigma = data.x @ direction
        _, steps = _steps(start.e, sigma, tt, cfg.lp_tol)
        if steps.size == 0:
            stop_reason = "unbounded_direction"
            break
        d = _line_search(a.alpha, start.e, -sigma, steps)
        candidate = start.beta + d * direction
        cand = residuals(data, candidate)
        f_cand = float(np.sort(cand.e) @ a.alpha)  # eval_loss at the candidate, from its residuals
        if f_cand < f_best:
            improvement = f_best - f_cand
            beta, res = candidate, cand
            f_best = f_cand
            last_dir = direction
            points.append(candidate.copy())
            f_values.append(f_cand)
        else:
            improvement = 0.0
        if improvement < cfg.stop_tol:
            stall += 1
            if stall >= cfg.stall_window:
                stop_reason = "stalled"
                break
        else:
            stall = 0

    trace = GgdTrace(tuple(points), tuple(f_values), stop_reason, n_iter, n_perturb)
    return GgdResult(beta, f_best, trace)
