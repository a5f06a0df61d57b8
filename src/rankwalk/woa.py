"""Descent across the residual-order arrangement.

The loss is linear on each region where the residual ordering is fixed, so
minimizing proceeds region by region: solve the linear program of the current
ordering, test the realizable pairs at its minimum for an improving direction,
and if one exists step along it to the smallest loss among the points where
the ordering changes.  Absence of an improving direction is equivalent to the
existence of a bistochastic certificate, which is then produced, already
decomposed, and checked from its terms before the minimizer is returned.

The direction and the certificate come from one cutting-plane search over
the nontrivial tie blocks at the region minimum (see ``certificate``).  A
rank alone in its block can hold nothing but its own observation, so its
pairing is fixed and folds into a constant; the search grows with the ties
at the current point, not with n.  The search first reads the region LP's
dual y: on a tie block of two ranks the Birkhoff polytope is the segment
between the pair's two orders, so when every row y weighs joins two ranks
of one tie block, no two such rows are adjacent and each y_r is at most its
score gap, the region's ordering with those pairs swapped is the
certificate, and the search poses no master LP.  That is how most walks
end.  When exactly one y_r exceeds its gap, y names the edge that parts
that pair and keeps the other weighted pairs tied, which the walk follows
when the master's descent test passes it (on the benchmark's ``walk`` fits,
at every step).  The master LP runs only where y is neither.

Each region LP first tries as its dual basis the rows tied up to rounding
at the point it is posed at: after a step, the pairs tied where the ray
landed.  Most regions a step enters have their minimum there, solved from
those rows and checked as the simplex checks its own answer; the others
start the simplex cold.

Where the loss stops falling along a ray has one site, ``_ray_step``, which
gradient descent shares.

The walk strictly decreases the region minima and never revisits an ordering;
both facts are asserted at runtime and a violation (only possible through
inconsistent tolerances) raises WalkInvariantError rather than looping.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .certificate import OptimalityCertificate, _conditions, _descent_search
from .loss import (ActivePairs, _are_orderings, _check_tie_tol, _residuals_at, _tie_cut, active_pairs, eval_loss,
                   residuals)
from .lp import LP_TOL, LpInfeasible, LpNumericError, LpOptimal, LpOutcome, LpUnbounded, _solve_by_dual
from .model import RegressionData, _check_count, sorted_scores

log = logging.getLogger(__name__)

_ROUNDING = 2.0 ** -40  # residuals this close, relative to 1 + max|e|, differ by rounding only


class WalkError(Exception):
    """The walk stopped without a verdict.  ``layer`` names where: "cell_lp",
    "descent_search", "certificate", "ray" or "walk" (the walk's own loop),
    and ``trace`` holds the iterations completed before the failure."""

    def __init__(self, message: str, layer: str, trace: "WalkTrace"):
        super().__init__(message)
        self.layer = layer
        self.trace = trace


class WalkInvariantError(WalkError):
    """A runtime assertion of the descent theory failed; this indicates a
    numerical tolerance problem, never a valid terminal state."""


class IterationBudgetError(WalkError):
    """The iteration cap was reached."""


class WalkNumericError(WalkError):
    """A layer's simplex refused to report a verdict on the program the walk
    posed (an LpNumericError, chained as the cause)."""


@dataclass(frozen=True)
class WoaConfig:
    """The tie tolerance and the iteration cap; the LP's is ``lp.LP_TOL``."""

    tie_tol: float | None = None  # None: loss.default_tie_tol at each region minimum
    max_iter: int | None = None  # None: min(1e6, region-count bound)

    def __post_init__(self):
        if self.tie_tol is not None:
            _check_tie_tol(self.tie_tol)
        if self.max_iter is not None:
            _check_count("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class Breakpoints:
    """Positive step lengths at which some residual pair ties along a ray:
    observations ``pairs[k] = (i, j)``, i < j, tie at step ``steps[k]``.
    ``pairs`` is a read-only K x 2 integer array and ``steps`` a read-only
    float array of length K, both in (i, j) order; each step finite and positive."""

    pairs: np.ndarray
    steps: np.ndarray

    def __post_init__(self):
        pairs = np.array(self.pairs, dtype=np.intp).reshape(-1, 2)
        steps = np.array(self.steps, dtype=float).ravel()
        if pairs.shape[0] != steps.shape[0]:
            raise ValueError(f"{pairs.shape[0]} pairs for {steps.shape[0]} steps")
        if not ((steps > 0.0) & (steps < math.inf)).all():  # NaN fails both
            raise ValueError("breakpoint steps must be finite and positive")
        pairs.setflags(write=False)
        steps.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "steps", steps)

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], float], ...]:
        """The breakpoints as ``((i, j), d)`` tuples of Python numbers."""
        return tuple(zip(map(tuple, self.pairs.tolist()), self.steps.tolist()))


@dataclass(frozen=True)
class WalkIteration:
    pi: tuple[int, ...]
    beta_star: np.ndarray
    f_star: float
    direction: np.ndarray | None
    d_star: float | None


@dataclass(frozen=True)
class WalkTrace:
    iterations: tuple[WalkIteration, ...]


@dataclass(frozen=True)
class Minimizer:
    beta_opt: np.ndarray
    f_opt: float
    certificate: OptimalityCertificate
    trace: WalkTrace


@dataclass(frozen=True)
class Unbounded:
    """The loss falls without bound from ``point`` along ``ray``; the trace
    ends with the region's iteration, at ``point`` along a multiple of ``ray``."""

    point: np.ndarray
    ray: np.ndarray
    trace: WalkTrace


def region_bound(n: int, p: int) -> int:
    """Upper bound on the number of full-dimensional ordering regions cut out
    of p-space by the n(n-1)/2 pairwise tie hyperplanes."""
    big_n = n * (n - 1) // 2
    return sum(math.comb(big_n, i) for i in range(0, p + 1))


def cell_lp(data: RegressionData, alpha, pi, at=None) -> LpOutcome:
    """Minimize the loss restricted to the region of ordering ``pi``.

    The program is posed in the offset delta from the point ``at`` (read as
    ``loss._residuals_at`` reads a point; the origin when None): with A = diff(x[pi]),
    b = diff(e[pi]) for the residuals e at ``at`` and grad = alpha . x[pi],
    minimize -grad . delta subject to A delta <= b.  It is solved as its
    dual, min b . y subject to A^T y = grad and y >= 0: p rows and n - 1
    columns, so nothing of size n x n is built.  ``minimize`` poses each
    region at its point in value order, ``np.argsort(e, kind="stable")``,
    so b >= 0 exactly.  The program is exact, never clamped: the answer is
    the same whatever ``at`` is.

    An optimal outcome carries the point ``at + delta``, delta the solve of
    the p rows that the dual's basis makes tight, the full loss value
    (response constant included) and the dual's y.  An unbounded outcome
    carries a ray along which the loss itself is unbounded below, the Farkas
    vector of the infeasible dual, and a feasible point: ``at`` itself when
    it lies in the region, else one read from the dual with b . y
    minimized over A^T y = 0.  Every outcome is checked against the n - 1
    rows of the region.

    The posed rows tied at ``at`` up to rounding, |b_r| <= ``_ROUNDING``
    (1 + max|e|), are tried first as the dual's basis: when the y solved on
    them is nonnegative and it and the vertex solved from them pass the
    simplex's checks, that is the optimum and no pivot is made
    (``lp._from_rows``).  After a step of ``minimize`` they are the pairs
    tied where the ray landed; at a point with no ties there are none to
    try.
    """
    a = sorted_scores(alpha, data.n)
    pi = np.asarray(pi if isinstance(pi, np.ndarray) else list(pi))
    if not _are_orderings(pi, (data.n,)):
        raise ValueError(f"{tuple(pi.tolist())} is not a permutation of 0..{data.n - 1}")
    res = _residuals_at(data, at, "at", origin=True)
    xp = data.x[pi]
    ep = res.e[pi]
    grad = a.alpha @ xp
    const = float(a.alpha @ data.y[pi]) - float(grad @ res.beta)
    b = ep[1:] - ep[:-1]
    tied = np.flatnonzero(np.abs(b) <= _ROUNDING * (1.0 + float(np.abs(ep).max())))
    out = _solve_by_dual(-grad, xp[1:] - xp[:-1], b, tied)
    if isinstance(out, LpOptimal):
        return LpOptimal(res.beta + out.point, const + out.value, out.dual)
    if isinstance(out, LpUnbounded):
        return LpUnbounded(res.beta + out.point, out.ray)
    return out


def improving_direction(data: RegressionData, alpha, ap: ActivePairs) -> np.ndarray | None:
    """A direction ell of strict descent from the point of ``ap``, or None
    when there is none (the point is then optimal).  The direction is the
    steepest in the norm |R ell|_inf, R the triangular factor of x; it comes
    from the cutting-plane search over the tie blocks that also yields the
    certificate (see ``solve_certificate``).  Weights are sorted on entry."""
    found = _descent_search(data, sorted_scores(alpha, data.n), ap)
    return found if isinstance(found, np.ndarray) else None


@lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair i < j of 0..n-1, row by row: the order of the double loop
    ``for i in range(n): for j in range(i + 1, n)``."""
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _direction(data: RegressionData, direction) -> np.ndarray:
    """``direction`` as a float vector, checked to be finite, nonzero and of
    width p."""
    ell = np.array(direction, dtype=float).ravel()
    if ell.shape[0] != data.p or not np.isfinite(ell).all():
        raise ValueError("direction must be a finite vector of width p")
    if float(np.abs(ell).max()) == 0.0:
        raise ValueError("direction must be nonzero")
    return ell


def _steps(e: np.ndarray, sigma: np.ndarray, tie_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The breakpoints of the ray along which the residuals move as
    e - d * sigma: a mask over the pairs of ``_upper_pairs``, true where the
    pair ties at some step d > tie_tol, and those steps in (i, j) order.
    Pairs with |sigma_j - sigma_i| <= ``LP_TOL`` never tie.  Each step is the
    scalar loop's (e_j - e_i) / (sigma_j - sigma_i), bit for bit."""
    i, j = _upper_pairs(e.size)
    den = sigma[j] - sigma[i]
    keep = np.abs(den) > LP_TOL
    d = e[j] - e[i]
    np.divide(d, den, out=d, where=keep)  # the pairs left out keep e_j - e_i, and stay out
    keep &= d > tie_tol
    return keep, d[keep]


def _line_search(alpha: np.ndarray, e: np.ndarray, neg: np.ndarray, steps: np.ndarray) -> float:
    """The line search of ``line_search`` on arrays: sorted weights
    ``alpha``, residuals ``e`` at the start of the ray, ``neg`` = -sigma and
    the ray's steps sorted ascending, at least one, finite and positive."""
    repeated = steps[1:] == steps[:-1]
    if repeated.any():
        steps = steps[np.concatenate(([True], ~repeated))]
    with np.errstate(over="ignore"):
        # Residuals that overflow to one infinity keep their limit order, by
        # -sigma; none do when none overflows at the largest step.
        exact = np.isfinite(e + steps[-1] * neg).all()

        def rises(k: int) -> bool:  # slope >= 0 between steps k and k + 1
            key = e + (0.5 * steps[k] + 0.5 * steps[k + 1]) * neg
            order = key.argsort() if exact else np.lexsort((neg, key))
            return alpha @ neg[order] >= 0.0

        lo, hi, k = 0, steps.size - 1, 0
        while k < hi:
            if rises(k):
                hi = k
                break
            lo, k = k + 1, 2 * k + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if rises(mid):
                hi = mid
            else:
                lo = mid + 1
    return float(steps[lo])


def _ray_step(alpha: np.ndarray, e: np.ndarray, sigma: np.ndarray, tie_tol: float) -> float | None:
    """``line_search`` over the ``breakpoints`` of the ray e - d * sigma, on
    sorted weights ``alpha``: None when it has none, so the loss is unbounded,
    and ValueError when one overflows."""
    steps = _steps(e, sigma, tie_tol)[1]
    if steps.size == 0:
        return None
    steps.sort()
    if steps[-1] == math.inf:  # the one step that is not finite: NaN and -inf fail _steps' d > tie_tol
        raise ValueError("a breakpoint of the ray is not finite")
    return _line_search(alpha, e, -sigma, steps)


def breakpoints(data: RegressionData, beta_star, direction, tie_tol: float | None = None) -> Breakpoints:
    """Step lengths d > tie_tol at which residual pairs tie along the ray
    beta_star + d * direction.  Pairs whose residuals move in parallel within
    ``LP_TOL`` never tie and are skipped.

    ``beta_star`` is read as ``loss._residuals_at`` reads a point, its
    Residuals included.  All pairs are handled at
    once, each with the floating-point operations of a scalar loop over
    i < j, so the steps equal that loop's bit for bit and come in its order."""
    res = _residuals_at(data, beta_star, "beta_star")
    tie_tol = _tie_cut(np.sort(res.e), tie_tol)[0]
    ell = _direction(data, direction)
    keep, steps = _steps(res.e, data.x @ ell, tie_tol)
    i, j = _upper_pairs(data.n)
    return Breakpoints(np.stack((i[keep], j[keep]), axis=1), steps)


def line_search(data: RegressionData, alpha, beta_star, direction, bps: Breakpoints) -> float:
    """Smallest minimizer of the loss along the ray, over the breakpoint grid.

    Along the ray the loss is convex and piecewise linear, and between two
    consecutive steps its slope is ``alpha @ -sigma`` in the residual order
    there (sigma = x @ direction).  Reading each slope in the order at the
    midpoint of its interval, the search returns the smallest step whose
    right-hand slope is nonnegative, or the largest step if none is.  It
    gallops first, probing intervals 0, 1, 3, 7, ... until a slope is
    nonnegative, then bisects inside that bracket, so an answer at sorted
    position k costs about 2 log2(k) probes.  ``beta_star`` may also be
    given as its Residuals, and it and ``direction`` are checked as
    ``breakpoints`` checks them."""
    if bps.steps.size == 0:
        raise ValueError("no breakpoints to search")
    a = sorted_scores(alpha, data.n)
    e = _residuals_at(data, beta_star, "beta_star").e
    neg = -(data.x @ _direction(data, direction))  # -sigma
    return _line_search(a.alpha, e, neg, np.sort(bps.steps))


def _require_descending_ray(data, alpha, point, ray, trace):
    try:
        f_prev = eval_loss(data, alpha, point)
        for t in (1.0, 10.0, 100.0):
            f_t = eval_loss(data, alpha, point + t * ray)
            if not f_t < f_prev:
                raise WalkInvariantError(f"claimed ray fails to decrease the loss at step {t}", "ray", trace)
            f_prev = f_t
    except ValueError as exc:  # eval_loss refused a point of the ray whose residuals overflow
        raise WalkError("the loss along the claimed ray overflows", "ray", trace) from exc


def minimize(data: RegressionData, alpha, beta0=None,
             config: WoaConfig | None = None) -> Minimizer | Unbounded:
    """Walk the arrangement from ``beta0`` (origin by default) to a verified
    minimizer, or detect that the loss is unbounded below.

    Weights are sorted on entry; their input order never matters.  A
    ``beta0`` that ``loss._residuals_at`` refuses raises ValueError; past
    that every failure is a WalkError that names its layer and carries the
    iterations before it: IterationBudgetError at the cap, WalkInvariantError
    where a descent assertion fails, WalkNumericError where a simplex
    degrades, and WalkError itself where a number the walk makes overflows.
    """
    cfg = config or WoaConfig()
    a = sorted_scores(alpha, data.n)
    res = _residuals_at(data, beta0, "beta0", origin=True)
    cap = cfg.max_iter if cfg.max_iter is not None else min(10 ** 6, region_bound(data.n, data.p))
    iterations: list[WalkIteration] = []
    visited: set[tuple[int, ...]] = set()
    R = np.linalg.qr(data.x, mode="r")  # the descent search's box, once per fit

    for it in range(cap):
        order = np.argsort(res.e, kind="stable")
        pi = tuple(order.tolist())
        trace_now = WalkTrace(tuple(iterations))
        if pi in visited:
            raise WalkInvariantError(f"ordering {pi} revisited at iteration {it}", "walk", trace_now)
        visited.add(pi)
        try:
            out = cell_lp(data, a, order, at=res)
        except LpNumericError as exc:
            raise WalkNumericError(f"cell_lp failed at iteration {it}: {exc}", "cell_lp", trace_now) from exc
        if isinstance(out, LpInfeasible):
            raise WalkInvariantError(f"region of the current ordering {pi} came back empty", "cell_lp", trace_now)
        if isinstance(out, LpUnbounded):  # its point is res.beta, posed in value order, so its loss is finite
            iterations.append(WalkIteration(pi, out.point, eval_loss(data, a, out.point), out.ray, None))
            trace_now = WalkTrace(tuple(iterations))
            _require_descending_ray(data, a, out.point, out.ray, trace_now)
            log.info("unbounded within region %s at iteration %d", pi, it)
            return Unbounded(out.point, out.ray, trace_now)
        beta_star, f_star = out.point, out.value
        if iterations and not (f_star < iterations[-1].f_star):
            raise WalkInvariantError(
                f"region minimum {f_star} did not improve on {iterations[-1].f_star}", "walk", trace_now)
        try:
            res_star = residuals(data, beta_star)
        except ValueError as exc:
            raise WalkError("the residuals at the region minimum overflow", "cell_lp", trace_now) from exc
        ap = active_pairs(res_star, cfg.tie_tol)
        try:
            found = _descent_search(data, a, ap, R, (order, out.dual))
        except LpNumericError as exc:
            raise WalkNumericError(f"descent_search failed at iteration {it}: {exc}", "descent_search",
                                   trace_now) from exc
        if isinstance(found, OptimalityCertificate):
            failures = tuple(name for name, ok, _ in _conditions(data, a, res_star, ap, found)[0] if not ok)
            if failures:
                raise WalkInvariantError(f"certificate failed verification: {failures}", "certificate", trace_now)
            iterations.append(WalkIteration(pi, beta_star, f_star, None, None))
            log.info("minimizer found after %d iterations, loss %.12g", len(iterations), f_star)
            return Minimizer(beta_star, f_star, found, WalkTrace(tuple(iterations)))
        ell = found
        try:
            d_star = _ray_step(a.alpha, res_star.e, data.x @ ell, ap.tie_tol)
        except ValueError as exc:
            raise WalkError(f"{exc} at iteration {it}", "ray", trace_now) from exc
        if d_star is None:
            iterations.append(WalkIteration(pi, beta_star, f_star, ell, None))
            ray = ell / float(np.abs(ell).max())
            trace_now = WalkTrace(tuple(iterations))
            _require_descending_ray(data, a, beta_star, ray, trace_now)
            log.info("descent ray never changes the ordering; unbounded at iteration %d", it)
            return Unbounded(beta_star, ray, trace_now)
        try:
            res = residuals(data, beta_star + d_star * ell)
        except ValueError as exc:
            raise WalkError("the residuals at the step overflow", "ray", trace_now) from exc
        iterations.append(WalkIteration(pi, beta_star, f_star, ell, d_star))
        log.debug("iteration %d: ordering %s, region minimum %.12g, step %.6g", it, pi, f_star, d_star)

    raise IterationBudgetError(f"no terminal state within {cap} iterations", "walk", WalkTrace(tuple(iterations)))
