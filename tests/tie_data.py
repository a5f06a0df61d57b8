"""Integer data whose response depends on the design, so that a walk meets
many exact ties at its region minima: at a vertex the residuals are
rationals with small denominators, and they tie in blocks of two to nine."""

import numpy as np

from rankwalk import RegressionData


def grid(seed: int, n: int, p: int, k: int) -> RegressionData:
    """x = [1, U{-k..k}^(p-1)] and y = x[:, 1:] @ U{-2..2}^(p-1) + U{-k..k},
    all integers stored as floats, drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.integers(-k, k + 1, (n, p - 1))]).astype(float)
    y = (x[:, 1:] @ rng.integers(-2, 3, p - 1) + rng.integers(-k, k + 1, n)).astype(float)
    return RegressionData(x, y)
