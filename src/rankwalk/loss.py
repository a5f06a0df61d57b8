"""Residuals, residual orderings, and the sorted-weight loss.

The loss of a coefficient vector is the maximum over all pairings of weights
with residuals; since the weights are sorted ascending the maximum is attained
by pairing them with the residuals sorted ascending.  Permutations are tuples
``pi`` with ``pi[i] = j`` meaning observation j holds rank i (0-based
throughout; the CLI converts to 1-based on output).

Which residuals tie has one site, ``_tie_cut``; the walk's tie blocks, the
verifier's, the orderings, ``breakpoints`` and gradient descent all read it.
Every layer that takes a point reads it through one helper,
``_residuals_at``, so each refuses a bad point in the same two forms,
naming it as its signature does.  A loss is summed by one helper too,
``_loss_sum``; ``_sorted_loss`` refuses a sum that overflows, naming its
point, and gradient descent refuses a step's loss only where it would
accept it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import RegressionData, sorted_scores

BRUTE_FORCE_LIMIT = 8


@dataclass(frozen=True)
class Residuals:
    """Residual vector ``e`` at the point ``beta`` it was computed at."""

    e: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        e = np.array(self.e, dtype=float).ravel()
        beta = np.array(self.beta, dtype=float).ravel()
        e.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "beta", beta)

    @property
    def n(self) -> int:
        return self.e.shape[0]


@dataclass(frozen=True, eq=False)
class ActivePairs:
    """The tie blocks at a point: ``order`` lists the observations in rank
    order (by value, then index) and ``label`` the block of each rank,
    numbered from 0 upward, so block b holds the ranks where ``label == b``,
    cut with ``tie_tol``.  The block of each observation and the realizable
    pairs are derived from them when first read."""

    order: np.ndarray
    label: np.ndarray
    tie_tol: float

    @cached_property
    def _split(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """The ranks alone in their block, and the rank range (lo, hi) of
        every other block."""
        label = self.label
        bounds = np.concatenate(([0], (label[1:] != label[:-1]).nonzero()[0] + 1, [label.size]))
        lo, hi = bounds[:-1], bounds[1:] - 1
        alone = lo == hi
        return lo[alone], list(zip(lo[~alone].tolist(), hi[~alone].tolist()))

    @cached_property
    def block_of(self) -> np.ndarray:
        """The block of each observation, a read-only integer array."""
        out = np.empty(self.order.size, dtype=np.intp)
        out[self.order] = self.label
        out.setflags(write=False)
        return out

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The (rank, observation) pairs some consistent ordering realizes."""
        alone, runs = self._split
        pairs = set(zip(alone.tolist(), self.order[alone].tolist()))
        for lo, hi in runs:
            obs = self.order[lo:hi + 1].tolist()
            pairs.update((i, j) for i in range(lo, hi + 1) for j in obs)
        return frozenset(pairs)


def residuals(data: RegressionData, beta) -> Residuals:
    """e_i = y_i - x_i . beta, with the dot product summed left to right (one
    column at a time, over all rows at once) from zeros, so the result is
    bit-reproducible; ``beta`` is read as ``_residuals_at`` reads a point."""
    return _residuals_at(data, beta, "beta")


def _residual_vector(y: np.ndarray, columns: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The residual vector of ``residuals`` on arrays, ``columns`` the rows
    of x^T and b of width p, unchecked.  The sign of a zero residual depends
    on the start from zeros."""
    acc = np.zeros(y.shape[0])
    for column, bk in zip(columns, b):
        acc += column * bk
    return y - acc


def _residuals_at(data: RegressionData, point, name: str, origin: bool = False) -> Residuals:
    """The one way a caller's point becomes Residuals: a Residuals of ``data``
    passes through, None is the origin where ``origin`` says so, and anything
    else must be a finite vector of width p, its residuals computed without
    NumPy's warnings.  Residuals that are not finite are refused too.  Each
    refusal is a ValueError, "<name> must be a finite vector of width p" or
    "the residuals at <name> are not finite"."""
    if point is None and origin:
        point = np.zeros(data.p)
    res = point if isinstance(point, Residuals) and point.n == data.n else None
    try:  # a Residuals of other data is no vector of numbers either
        b = np.array(point, dtype=float).ravel() if res is None else res.beta
    except (TypeError, ValueError):
        b = np.empty(0)
    if b.shape[0] != data.p or not all(map(math.isfinite, b.tolist())):  # p is small
        raise ValueError(f"{name} must be a finite vector of width p")
    if res is None:
        with np.errstate(over="ignore", invalid="ignore"):
            res = Residuals(_residual_vector(data.y, data.x.T, b), b)
    if not np.isfinite(res.e).all():
        raise ValueError(f"the residuals at {name} are not finite")
    return res


def _tie_tol_at(top: float) -> float:
    """The default tie tolerance of residuals whose largest |e| is ``top``."""
    return 1e-9 * (1.0 + top)


def default_tie_tol(res: Residuals) -> float:
    return _tie_tol_at(float(np.abs(res.e).max()))


def _check_tie_tol(tie_tol: float):
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ValueError(f"tie tolerance must be finite and nonnegative, got {tie_tol}")


def _tie_cut(es: np.ndarray, tie_tol: float | None) -> tuple[float, np.ndarray]:
    """At residuals sorted ascending as ``es``: ``tie_tol``, or when None the
    default read from the sorted ends (``default_tie_tol``'s, NaN if some
    residual is), checked; and where the gap to the next residual exceeds it."""
    if tie_tol is None:
        tie_tol = _tie_tol_at(float(max(es[-1], -es[0])))
    _check_tie_tol(tie_tol)
    return tie_tol, es[1:] - es[:-1] > tie_tol


def _tie_order(e: np.ndarray, tie_tol: float | None) -> tuple[np.ndarray, np.ndarray, float]:
    """Observations in (value, index) order, the tie block of each position
    (the transitive closure of |e_a - e_b| <= tie_tol over that order,
    blocks numbered from 0 upward) and the tolerance of ``_tie_cut``."""
    order = np.argsort(e, kind="stable")
    tie_tol, cut = _tie_cut(e[order], tie_tol)
    return order, np.concatenate(([0], np.cumsum(cut))), tie_tol


def _are_orderings(orders: np.ndarray, shape: tuple[int, ...]) -> bool:
    """Whether ``orders`` is integer, of ``shape``, and each row a permutation of 0..shape[-1]-1."""
    return (orders.dtype.kind in "iu" and orders.shape == shape
            and bool((np.sort(orders, axis=-1) == np.arange(shape[-1])).all()))


def consistent_permutation(res: Residuals, tie_tol: float | None = None) -> tuple[int, ...]:
    """An ordering putting residuals in nondecreasing order, deterministic
    under ties: within a tie block observations are listed by index
    (any block order is valid)."""
    order, label, _ = _tie_order(res.e, tie_tol)
    return tuple(order[np.lexsort((order, label))].tolist())


def active_pairs(res: Residuals, tie_tol: float | None = None) -> ActivePairs:
    """The tie blocks of the residuals at this point: observation j can hold
    rank i in some consistent ordering exactly when both share a block."""
    return ActivePairs(*_tie_order(res.e, tie_tol))


def eval_loss(data: RegressionData, alpha, beta) -> float:
    """Loss at beta: sorted residuals paired with the weights, sorted on
    entry.  A ``beta`` whose residuals or loss overflow is refused."""
    a = sorted_scores(alpha, data.n)
    return _sorted_loss(np.sort(residuals(data, beta).e), a.alpha, "beta")


def _loss_sum(es: np.ndarray, alpha: np.ndarray) -> float:
    """The loss of residuals sorted ascending as ``es`` under sorted weights
    ``alpha``, summed without NumPy's warnings.  Finite residuals can still
    sum past the largest float, to an infinite or NaN loss."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(es @ alpha)


def _sorted_loss(es: np.ndarray, alpha: np.ndarray, name: str) -> float:
    """``_loss_sum``, refused with ValueError "the loss at <name> is not
    finite" when it is not finite."""
    f = _loss_sum(es, alpha)
    if not math.isfinite(f):
        raise ValueError(f"the loss at {name} is not finite")
    return f


@lru_cache(maxsize=8)
def _perm_table(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def eval_loss_bruteforce(data: RegressionData, alpha, beta) -> float:
    """Maximum over all n! pairings, by exhaustion, of the weights sorted
    on entry.  Testing oracle only."""
    if data.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got {data.n}")
    a = sorted_scores(alpha, data.n)
    e = residuals(data, beta).e
    return float(np.max(e[_perm_table(data.n)] @ a.alpha))
