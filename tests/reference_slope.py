"""The exact minimum of the loss in one slope, at any n.

With x = [1, t] and scores that sum to exactly 0, the loss does not depend
on the intercept, F(b) = sum_k alpha_k r_(k) with r = y - b t sorted
ascending.  It is convex and piecewise linear in b, with kinks at the
pairwise slopes (y_j - y_i) / (t_j - t_i), t_i != t_j (Theil-Sen's slopes).
Its right derivative at b is -sum_k alpha_k t over the order by (r, -t),
and its left one the same over the order by (r, t).

``slope_minimum`` bisects in floats over the sorted kinks on the sign of
the right derivative, then proves the kink it lands near exactly: every
number involved is a float, so y and t become integers Y, T at one power
of two, and a kink P / Q, Q > 0, orders the residuals by Q Y - P T, an
integer.  The minimizing set is the interval [lo, hi], lo the kink where
the left derivative is < 0 <= the right one, and hi the kink where the left
one is <= 0 < the right one; the two checks prove it, because the
derivatives of a convex function are nondecreasing.  F is computed exactly
there.  It shares nothing with the walk: no tie rule, no LP, no verifier.

The named scores sum to 0 only up to rounding, so ``mirrored_scores`` makes
a table whose upper half is the negated lower half, 0 at an odd middle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from rankwalk import ScoreVector, make_scores


@dataclass(frozen=True)
class SlopeMinimum:
    """Every slope in [lo, hi] minimizes F, none outside it does, and the
    minimum is f."""

    lo: Fraction
    hi: Fraction
    f: Fraction


def mirrored_scores(kind: str, n: int) -> ScoreVector:
    """The named scores' lower half, with the upper half its negation in
    reverse and 0 at an odd middle, so that they sum to exactly 0."""
    low = make_scores(kind, n).alpha[:n // 2]
    return ScoreVector(np.concatenate([low, [0.0] * (n % 2), -low[::-1]]))


def exact_loss(t, y, alpha, b) -> Fraction:
    """F at the slope ``b``, a float or a Fraction, exactly."""
    b = Fraction(b)
    residuals = sorted(Fraction(v) - b * Fraction(u) for u, v in zip(t, y))
    return sum(Fraction(a) * r for a, r in zip(alpha, residuals))


def _integers(values) -> tuple[list[int], int]:
    """Floats as integers at one power-of-two scale: (values * scale, scale)."""
    fractions = [Fraction(v) for v in values]
    scale = max(f.denominator for f in fractions)  # every denominator is a power of two
    return [f.numerator * (scale // f.denominator) for f in fractions], scale


def slope_minimum(t, y, alpha) -> SlopeMinimum:
    """The exact minimizing interval of F over the slope, and F there, for
    float arrays ``t`` and ``y`` and ascending weights ``alpha`` with
    exactly zero sum."""
    t, y, alpha = (np.asarray(v, dtype=float) for v in (t, y, alpha))
    n = len(t)
    ints, scale = _integers(np.concatenate([t, y]))
    T, Y = ints[:n], ints[n:]
    A, a_scale = _integers(alpha)
    if sum(A) != 0:
        raise ValueError("the scores must sum to exactly 0")

    i, j = np.triu_indices(n, 1)
    moving = t[i] != t[j]
    i, j = i[moving], j[moving]
    slopes = (y[j] - y[i]) / (t[j] - t[i])
    by_slope = np.argsort(slopes, kind="stable")
    slopes, i, j = slopes[by_slope], i[by_slope], j[by_slope]

    def right_float(b: float) -> float:
        r = y - b * t
        return -float(alpha @ t[np.lexsort((-t, r))])

    def kink(k: int) -> Fraction:
        return Fraction(Y[j[k]] - Y[i[k]], T[j[k]] - T[i[k]])

    def order(b: Fraction, side: int) -> list[int]:
        """Observations by residual at b, ties by side * t."""
        p, q = b.numerator, b.denominator
        return sorted(range(n), key=lambda m: (q * Y[m] - p * T[m], side * T[m]))

    def derivative(b: Fraction, side: int) -> int:
        """The right (side = -1) or left (side = 1) derivative at b, times
        the positive scale * a_scale."""
        return -sum(a * T[m] for a, m in zip(A, order(b, side)))

    def prove(strict: bool) -> Fraction:
        """The kink with left < 0 <= right (lo), or with left <= 0 < right (hi)."""
        lo_k, hi_k = 0, len(slopes)
        while lo_k < hi_k:  # the first kink whose float right derivative is >= 0 (> 0 when strict)
            mid = (lo_k + hi_k) // 2
            d = right_float(slopes[mid])
            if d > 0.0 or (d == 0.0 and not strict):
                hi_k = mid
            else:
                lo_k = mid + 1
        for width in (4, 16, 64, 256, 1024):  # the kinks that float rounding may have misplaced
            window = range(max(0, lo_k - width), min(len(slopes), lo_k + width + 1))
            for b in sorted({kink(k) for k in window}):
                left, right = derivative(b, 1), derivative(b, -1)
                if (left <= 0 < right) if strict else (left < 0 <= right):
                    return b
        raise ValueError(f"no kink near kink {lo_k} of the float bisection proves")

    lo = prove(False)
    hi = lo if derivative(lo, -1) > 0 else prove(True)
    p, q = lo.numerator, lo.denominator
    f = Fraction(sum(a * (q * Y[m] - p * T[m]) for a, m in zip(A, order(lo, 1))), q * scale * a_scale)
    return SlopeMinimum(lo, hi, f)
