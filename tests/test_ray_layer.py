"""The array-backed ray layer against the scalar code it replaced.

``breakpoints``, ``line_search``, ``consistent_permutation`` and
``cell_gradient`` compute on NumPy arrays; the reference functions below are
the plain Python loops they replaced, kept here as the specification.  Every
comparison is exact: the arrays do the same floating-point operations on the
same operands, so not even the last bit may differ.  The line search is the
exception: it reads slopes where the scan read losses, and on an exact
plateau the two may settle on different steps of equal loss.
"""

import math

import numpy as np
import pytest

from rankwalk import (
    Breakpoints,
    RegressionData,
    ScoreVector,
    breakpoints,
    cell_gradient,
    consistent_permutation,
    eval_loss,
    line_search,
    make_scores,
    residuals,
)

KINDS = ("sign", "wilcoxon", "van_der_waerden")


def ref_tie_tol(e):
    """The tie tolerance at residuals e: 1e-9 (1 + max|e|)."""
    return 1e-9 * (1.0 + max(abs(v) for v in e.tolist()))


def ref_breakpoints(data, beta, ell, lp_tol=1e-9):
    e = residuals(data, beta).e
    tie_tol = ref_tie_tol(e)
    sigma = data.x @ np.asarray(ell, dtype=float)
    entries = []
    for i in range(data.n):
        for j in range(i + 1, data.n):
            den = sigma[j] - sigma[i]
            if abs(den) <= lp_tol:
                continue
            d = (e[j] - e[i]) / den
            if d > tie_tol:
                entries.append(((i, j), float(d)))
    return tuple(entries)


def ref_line_search(data, alpha, beta0, ell, entries):
    beta0 = np.asarray(beta0, dtype=float)
    ell = np.asarray(ell, dtype=float)
    best_d, best_f, prev_f = None, math.inf, None
    for _, d in sorted(entries, key=lambda entry: (entry[1], entry[0])):
        f = eval_loss(data, alpha, beta0 + d * ell)
        if f < best_f:
            best_f, best_d = f, d
        if prev_f is not None and f > prev_f:
            break
        prev_f = f
    return float(best_d)


def ref_bisection(data, alpha, beta0, ell, bps):
    """The line search without its galloping start: a plain bisection over
    the sorted distinct steps, reading the slope at each interval's midpoint."""
    e = residuals(data, beta0).e
    neg = -(data.x @ np.asarray(ell, dtype=float))
    steps = np.sort(bps.steps)
    steps = steps[np.concatenate(([True], steps[1:] != steps[:-1]))]
    lo, hi = 0, steps.size - 1
    with np.errstate(over="ignore"):
        exact = np.isfinite(e + steps[-1] * neg).all()
        while lo < hi:
            mid = (lo + hi) // 2
            key = e + (0.5 * steps[mid] + 0.5 * steps[mid + 1]) * neg
            order = np.argsort(key) if exact else np.lexsort((neg, key))
            if alpha.alpha @ neg[order] >= 0.0:
                hi = mid
            else:
                lo = mid + 1
    return float(steps[lo])


def same_loss(data, alpha, beta0, ell, d1, d2):
    """Equal losses at two steps, up to the rounding of an exact plateau."""
    f1 = eval_loss(data, alpha, np.asarray(beta0) + d1 * np.asarray(ell))
    f2 = eval_loss(data, alpha, np.asarray(beta0) + d2 * np.asarray(ell))
    return abs(f1 - f2) <= 1e-14 * max(abs(f1), abs(f2))


def ref_tie_blocks(e, tie_tol):
    order = sorted(range(e.shape[0]), key=lambda i: (e[i], i))
    blocks = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if e[cur] - e[prev] > tie_tol:
            blocks.append([cur])
        else:
            blocks[-1].append(cur)
    return blocks


def ref_consistent_permutation(res):
    pi = []
    for block in ref_tie_blocks(res.e, ref_tie_tol(res.e)):
        pi.extend(sorted(block))
    return tuple(pi)


def ref_cell_gradient(data, alpha, beta):
    res = residuals(data, beta)
    if any(len(b) > 1 for b in ref_tie_blocks(res.e, ref_tie_tol(res.e))):
        return None
    pi = ref_consistent_permutation(res)
    return -(alpha.alpha @ data.x[list(pi)])


def instances(seed, count):
    """Seeded (data, beta, ell, alpha) with n in 2..60 and p in 1..4.  Odd
    draws are an integer grid with signed zeros in y and beta, which gives
    exact ties, -0.0 residuals and repeated breakpoint steps; even draws are
    continuous.  Every fifth draw has flat (all-zero) scores."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(2, 61))
        p = int(rng.integers(1, 5))
        if t % 2:
            x = rng.integers(-2, 3, size=(n, p)).astype(float)
            y = rng.integers(-2, 3, size=n).astype(float)
            y[y == 0] = -0.0
            beta = rng.integers(-1, 2, size=p).astype(float)
            beta[beta == 0] = -0.0
            ell = rng.integers(-2, 3, size=p).astype(float)
            if not ell.any():
                ell[0] = 1.0
        else:
            x = rng.standard_normal((n, p))
            y = x @ rng.standard_normal(p) + rng.standard_t(2, n)
            beta = rng.standard_normal(p)
            ell = rng.standard_normal(p)
        alpha = ScoreVector(np.zeros(n)) if t % 5 == 4 else make_scores(KINDS[t % 3], n)
        yield RegressionData(x, y), beta, ell, alpha


def test_breakpoints_match_the_double_loop():
    total = 0
    for data, beta, ell, _ in instances(0, 240):
        got = breakpoints(data, beta, ell)
        want = ref_breakpoints(data, beta, ell)
        assert got.entries == want
        assert all(type(i) is int and type(j) is int and type(d) is float for (i, j), d in got.entries)
        assert breakpoints(data, residuals(data, beta), ell).entries == want  # given as residuals
        total += len(want)
    assert total > 10_000


def ref_slope(data, alpha, e, sigma, lo, hi):
    """Slope of the loss along the ray on the open interval (lo, hi) of
    steps, read in the residual order at its midpoint by a Python sort."""
    d = (lo + hi) / 2.0
    order = sorted(range(data.n), key=lambda i: (e[i] - d * sigma[i], i))
    return float(sum(alpha.alpha[k] * -sigma[i] for k, i in enumerate(order)))


def test_line_search_takes_the_first_nonnegative_slope():
    searched = negative_zeros = plateaus = 0
    for data, beta, ell, alpha in instances(1, 240):
        res = residuals(data, beta)
        negative_zeros += int(np.any((res.e == 0.0) & np.signbit(res.e)))
        bps = breakpoints(data, beta, ell)
        if bps.steps.size == 0:
            continue
        got = line_search(data, alpha, beta, ell, bps)
        assert line_search(data, alpha, res, ell, bps) == got  # given as residuals
        steps = sorted(set(bps.steps.tolist()))
        assert got in steps
        k = steps.index(got)
        sigma = data.x @ np.asarray(ell, dtype=float)
        if k > 0:
            assert ref_slope(data, alpha, res.e, sigma, steps[k - 1], got) < 0.0
        if k + 1 < len(steps):
            assert ref_slope(data, alpha, res.e, sigma, got, steps[k + 1]) >= 0.0
        scan = ref_line_search(data, alpha, beta, ell, bps.entries)
        if got != scan:  # an exact plateau, on which the scan's rounding moved on
            assert same_loss(data, alpha, beta, ell, got, scan)
            assert got < scan
            plateaus += 1
        bisection = ref_bisection(data, alpha, beta, ell, bps)
        assert got == bisection or same_loss(data, alpha, beta, ell, got, bisection)
        searched += 1
    assert searched > 200
    assert plateaus <= 2
    assert negative_zeros > 50


def test_line_search_reads_repeated_steps_as_the_distinct_ones():
    """``line_search`` searches the sorted steps with their repeats, the
    reference only the distinct ones; on every ray the two return the same
    step exactly, on an exact plateau too, and hundreds of the rays repeat
    the step that is their answer."""
    searched = repeated = 0
    for seed in range(5):
        for data, beta, ell, alpha in instances(seed, 240):
            bps = breakpoints(data, beta, ell)
            if bps.steps.size == 0:
                continue
            got = line_search(data, alpha, beta, ell, bps)
            assert got == ref_bisection(data, alpha, beta, ell, bps)
            repeated += int(np.count_nonzero(bps.steps == got) > 1)
            searched += 1
    assert searched > 1_000
    assert repeated >= 300


@pytest.mark.parametrize("end", ["first", "last"])
def test_line_search_finds_answers_at_either_end(end):
    """Rays with sigma = x @ ell > 0 for every observation: under positive
    weights the slope -alpha @ sigma[order] is negative on every interval,
    so the answer is the largest step; under negative weights it is
    positive everywhere, and the answer is the smallest."""
    searched = 0
    for data, beta, ell, _ in instances(4, 120):
        rng = np.random.default_rng(data.n)
        weights = np.sort(rng.uniform(0.5, 1.5, data.n))
        alpha = ScoreVector(weights if end == "last" else -weights[::-1])
        x = np.column_stack([np.ones(data.n), data.x])
        ell = np.concatenate([[1.0 + np.abs(data.x @ ell).max()], ell])
        shifted = RegressionData(x, data.y)
        beta = np.concatenate([[0.0], beta])
        bps = breakpoints(shifted, beta, ell)
        if bps.steps.size == 0:
            continue
        want = float(bps.steps.max() if end == "last" else bps.steps.min())
        assert line_search(shifted, alpha, beta, ell, bps) == want
        assert ref_bisection(shifted, alpha, beta, ell, bps) == want
        searched += 1
    assert searched > 80


def _v_shape():
    """Loss |b| on one coefficient: max(e) - min(e) with e = (-b, 0)."""
    return RegressionData(np.array([[1.0], [0.0]]), np.array([0.0, 0.0])), ScoreVector(np.array([-1.0, 1.0]))


@pytest.mark.parametrize("rise", [1, 7, 8, 9, 23, 24, 25, 55, 56, 57, 70, 119, 120, 121, 199, 250])
def test_line_search_stops_at_the_first_rise(rise):
    # Steps 1..200 from beta0 = -(rise + 0.25): the loss falls up to step
    # `rise` and first rises at 0-based position `rise` of the sorted steps.
    # The rises sit at both ends and in runs of neighbours in between, so the
    # bisection must settle on either side of a probe; 250 never rises.
    data, alpha = _v_shape()
    steps = np.arange(1.0, 201.0)
    bps = Breakpoints(np.zeros((steps.size, 2)), np.random.default_rng(rise).permutation(steps))
    beta0 = [-(rise + 0.25)]
    want = ref_line_search(data, alpha, beta0, [1.0], bps.entries)
    assert want == float(min(rise, 200))
    assert line_search(data, alpha, beta0, [1.0], bps) == want
    doubled = Breakpoints(np.zeros((2 * steps.size, 2)), np.repeat(steps, 2))
    assert line_search(data, alpha, beta0, [1.0], doubled) == want


def test_line_search_flat_scores_take_the_smallest_step():
    data, _ = _v_shape()
    flat = ScoreVector([0.0, 0.0])
    steps = np.array([3.0, 0.5, 2.0, 0.5, 9.0] * 20)
    bps = Breakpoints(np.zeros((steps.size, 2)), steps)
    assert line_search(data, flat, [-4.0], [1.0], bps) == 0.5


def test_line_search_raises_where_the_scan_would():
    data, alpha = _v_shape()
    # A step the scan could not take, or one behind the start, is refused when
    # the breakpoints are built; a step of -1 would have walked backwards.
    for step in (-math.inf, math.inf, math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="^breakpoint steps must be finite and positive$"):
            Breakpoints(np.zeros((3, 2)), [step, 1.0, 2.0])
    # Past the first rise the scan stops before an overflowing point.
    bps = Breakpoints(np.zeros((3, 2)), [1.0, 2.0, 1e308])
    assert line_search(data, alpha, [-1.0], [1e10], bps) == ref_line_search(data, alpha, [-1.0], [1e10], bps.entries)


def test_line_search_orders_overflowed_residuals_by_their_limit():
    # Along this ray the residuals are -d * (1e300, 2e300, 0): the order never
    # changes and the slope 2e300 - 0.6e300 is positive, so the smallest step
    # wins.  At the midpoint 5e307 the first two overflow to -inf; listed by
    # index instead of by -sigma they would give the slope 1e300 - 1.2e300.
    data = RegressionData(np.array([[1.0], [2.0], [0.0]]), np.zeros(3))
    alpha = ScoreVector(np.array([-1.0, 0.6, 0.6]))
    bps = Breakpoints(np.zeros((2, 2)), [1e308, 1.0])
    assert line_search(data, alpha, [0.0], [1e300], bps) == 1.0


def test_consistent_permutation_matches_the_block_sort():
    for data, beta, _, _ in instances(2, 240):
        res = residuals(data, beta)
        assert consistent_permutation(res) == ref_consistent_permutation(res)


def test_cell_gradient_matches_the_reference():
    grads = nones = 0
    for data, beta, _, alpha in instances(3, 240):
        want = ref_cell_gradient(data, alpha, beta)
        got = cell_gradient(data, alpha, beta)
        if want is None:
            assert got is None
            nones += 1
        else:
            assert got.tobytes() == want.tobytes()
            assert cell_gradient(data, alpha, residuals(data, beta)).tobytes() == want.tobytes()
            grads += 1
    assert grads > 100 and nones > 100


def test_breakpoints_reject_residuals_of_another_shape():
    data, _ = _v_shape()
    other = RegressionData(np.ones((3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        breakpoints(data, residuals(other, [0.0]), [1.0])


def test_breakpoints_arrays_are_read_only():
    bps = Breakpoints([(0, 1), (0, 2)], [1.0, 2.0])
    assert bps.pairs.shape == (2, 2) and bps.steps.shape == (2,)
    with pytest.raises(ValueError):
        bps.steps[0] = 5.0
    with pytest.raises(ValueError):
        Breakpoints([(0, 1)], [1.0, 2.0])
