"""The walk against the exact minimum in one slope (``reference_slope``), past
the oracle's n <= 8: x = [1, t], mirrored scores, so F depends on the slope
alone and its minimizing interval and minimum are proved in exact
arithmetic."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from rankwalk import Minimizer, minimize

from reference_slope import exact_loss, mirrored_scores, slope_minimum
from test_cell_lp_reference import bench_cases
from tie_data import grid

CASES = bench_cases()
# integer_grid's y does not depend on t, so its exact slope is 0, the walk's
# start; grid's y does, and the walk meets exact ties at its region minima.
FAMILIES = {
    "continuous": CASES.continuous,
    "integer_grid": CASES.integer_grid,
    "grid": lambda seed, n, p: grid(seed, n, p, 5),
}


@pytest.mark.parametrize("kind", CASES.KINDS)
@pytest.mark.parametrize("n", [40, 400])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_walk_reaches_the_exact_slope(family, n, kind):
    """f_opt within 1e-12 relative of the exact minimum, and the slope within
    1e-12 relative of the exact minimizing interval."""
    alpha = mirrored_scores(kind, n)
    for seed in range(3):
        data = FAMILIES[family](seed, n, 2)
        exact = slope_minimum(data.x[:, 1], data.y, alpha.alpha)
        out = minimize(data, alpha)
        assert isinstance(out, Minimizer)
        assert abs(Fraction(out.f_opt) - exact.f) <= Fraction(1e-12) * exact.f
        slope = Fraction(out.beta_opt[1])
        assert max(exact.lo - slope, slope - exact.hi, 0) <= Fraction(1e-12) * max(abs(exact.lo), abs(exact.hi))


def test_the_reference_agrees_with_every_kink():
    """On small integer data with sign scores, where F is often flat at its
    minimum, [lo, hi] spans the kinks at which the exact F is least, and f
    is that least value."""
    rng = np.random.default_rng(10)
    flat = 0
    for _ in range(60):
        n = int(rng.integers(3, 9))
        t = rng.integers(-3, 4, n).astype(float)
        y = rng.integers(-3, 4, n).astype(float)
        if len(set(t.tolist())) < 2:
            continue
        alpha = mirrored_scores("sign", n).alpha
        exact = slope_minimum(t, y, alpha)
        kinks = {Fraction(Fraction(y[j]) - Fraction(y[i]), Fraction(t[j]) - Fraction(t[i]))
                 for i, j in itertools.combinations(range(n), 2) if t[i] != t[j]}
        values = {b: exact_loss(t, y, alpha, b) for b in kinks}
        least = min(values.values())
        at_least = [b for b, v in values.items() if v == least]
        assert (exact.lo, exact.hi, exact.f) == (min(at_least), max(at_least), least)
        flat += exact.lo < exact.hi
    assert flat >= 5
