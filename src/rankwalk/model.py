"""Problem data and score weights.

A problem instance is a design matrix with one row per observation plus a
response vector.  The loss is the maximum over pairings of residuals with
weights, so the order of the weights never matters: ``ScoreVector`` sorts
them when built, the one way weights become a ``ScoreVector``.  A point
has its own one way in, ``loss._residuals_at``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

SCORE_KINDS = ("sign", "wilcoxon", "van_der_waerden")


@dataclass(frozen=True)
class RegressionData:
    """Design matrix ``x`` (n rows, p columns) and response ``y`` (length n)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.ndim != 2:
            raise ValueError(f"design matrix must be 2-dimensional, got shape {x.shape}")
        y = np.array(self.y, dtype=float).ravel()
        n, p = x.shape
        if n < 1 or p < 1:
            raise ValueError(f"need at least one row and one column, got {n}x{p}")
        if y.shape[0] != n:
            raise ValueError(f"response length {y.shape[0]} does not match {n} rows")
        if not np.isfinite(x).all() or not np.isfinite(y).all():
            raise ValueError("data must be finite")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ScoreVector:
    """Weights in any order, kept sorted ascending."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha, dtype=float).ravel()
        if (a[1:] < a[:-1]).any():  # sorted weights are kept as given, signed zeros included
            a.sort()
        if a.size < 1:
            raise ValueError("need at least one weight")
        if not np.isfinite(a).all():
            raise ValueError("weights must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    @property
    def n(self) -> int:
        return self.alpha.shape[0]


def standard_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def inverse_normal_cdf(u: float) -> float:
    """Quantile of the standard normal, accurate to |cdf(result) - u| < 1e-12:
    the standard library's ``NormalDist().inv_cdf`` (Wichura's AS 241)."""
    from statistics import NormalDist  # on first use: the import takes a few ms

    if not (0.0 < u < 1.0):  # NaN too, which inv_cdf would return
        raise ValueError(f"quantile argument must lie strictly in (0, 1), got {u}")
    return NormalDist().inv_cdf(u)


def _phi(kind: str, xi: float) -> float:
    if kind == "sign":
        if xi > 0.5:
            return 1.0
        if xi < 0.5:
            return -1.0
        return 0.0
    if kind == "wilcoxon":
        return math.sqrt(12.0) * (xi - 0.5)
    return inverse_normal_cdf(xi)  # van_der_waerden


def make_scores(kind: str, n: int) -> ScoreVector:
    """The weights of score kind ``kind`` for n observations: one of the
    named generators in SCORE_KINDS, each evaluating a nondecreasing
    function at i/(n+1) for i = 1..n.  A table of weights is a
    ``ScoreVector`` itself."""
    _check_count("n", n, 1)
    if not (isinstance(kind, str) and kind in SCORE_KINDS):
        raise ValueError(f"unknown score kind {kind!r}; expected one of {SCORE_KINDS} (a table is a ScoreVector)")
    return ScoreVector(np.array([_phi(kind, i / (n + 1)) for i in range(1, n + 1)]))


def sorted_scores(alpha, n: int) -> ScoreVector:
    """Weights for n observations: a ScoreVector passes through, anything
    else is taken as raw weights and becomes one."""
    a = alpha if isinstance(alpha, ScoreVector) else ScoreVector(alpha)
    if a.n != n:
        raise ValueError(f"{a.n} weights for {n} observations")
    return a


def _check_count(name: str, value, least: int):
    """Reject ``value`` unless it is an integer (NumPy's too, not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
