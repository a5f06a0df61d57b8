import linecache
import math
import sys

import numpy as np
import pytest

import rankwalk
from rankwalk import (
    Breakpoints,
    IterationBudgetError,
    LpInfeasible,
    LpNumericError,
    LpOptimal,
    LpUnbounded,
    Minimizer,
    OptimalityCertificate,
    RegressionData,
    ScoreVector,
    Unbounded,
    WalkError,
    WalkInvariantError,
    WalkNumericError,
    active_pairs,
    breakpoints,
    cell_lp,
    consistent_permutation,
    eval_loss,
    improving_direction,
    line_search,
    make_scores,
    minimize,
    random_instance,
    region_bound,
    residuals,
    verify_certificate,
)
from rankwalk.woa import _require_descending_ray

from reference_slope import mirrored_scores
from test_cell_lp_reference import bench_cases


def test_region_bound():
    assert region_bound(3, 1) == 4
    assert region_bound(3, 2) == 7
    assert region_bound(4, 2) == 22
    assert region_bound(6, 3) == 576
    assert region_bound(1, 5) == 1  # no pairs, single region


def test_cell_lp_worked(worked):
    data, alpha = worked
    out = cell_lp(data, alpha, (2, 0, 1))
    assert isinstance(out, LpOptimal)
    assert abs(out.point[0]) < 1e-9
    assert abs(out.value - 1.0) < 1e-9
    out = cell_lp(data, alpha, (0, 1, 2))
    assert isinstance(out, LpOptimal)
    assert abs(out.point[0] + 1.0) < 1e-9
    assert abs(out.value - 2.0) < 1e-9


def test_cell_lp_unbounded_single_row():
    data = RegressionData(np.array([[1.0]]), np.array([0.0]))
    out = cell_lp(data, ScoreVector([1.0]), (0,))
    assert isinstance(out, LpUnbounded)


def test_cell_lp_at_a_point_worked(worked):
    data, alpha = worked
    for at in ([0.0], [0.3], [-4.0], [7.5]):
        out = cell_lp(data, alpha, (2, 0, 1), at=at)
        assert isinstance(out, LpOptimal)
        assert abs(out.point[0]) < 1e-9 and abs(out.value - 1.0) < 1e-9
    origin = cell_lp(data, alpha, (0, 1, 2))
    centred = cell_lp(data, alpha, (0, 1, 2), at=[0.0])
    assert origin.point.tobytes() == centred.point.tobytes() and origin.value == centred.value


def in_region(data, pi, beta):
    e = residuals(data, beta).e[list(pi)]
    return bool(np.all(np.diff(e) >= -1e-7 * (1.0 + np.abs(e).max())))


def test_cell_lp_at_a_point_agrees_with_the_origin(monkeypatch):
    """The cell LP posed in the offset from a point inside the region, from
    the walk's point just past a tie where its start step or a step landed
    (a few rows slightly violated), or from a point outside the region
    (phase 1 on many rows) has the outcome and the value of the program
    posed at the origin.  The walk starts at the point inside and, with no
    start step, at the region's minimum, where p pairs tie."""
    rng = np.random.default_rng(17)
    kinds = ("sign", "wilcoxon", "van_der_waerden")
    seen = {"inside": 0, "post-step": 0, "outside": 0, "unbounded": 0, "crossed": 0}
    posed, walk_cell_lp = [], rankwalk.woa.cell_lp
    monkeypatch.setattr(rankwalk.woa, "cell_lp", lambda *args, at: posed.append(at.beta) or walk_cell_lp(*args, at=at))
    for t in range(32):
        n, p = int(rng.integers(6, 30)), int(rng.integers(1, 4))
        x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        if t % 2:
            x = np.round(2.0 * x)
            x[:, 0] = 1.0
        data = RegressionData(x, np.round(x @ rng.standard_normal(p) + rng.standard_t(2, n), t % 2))
        alpha = make_scores(kinds[t % 3], n) if t % 4 else ScoreVector(rng.standard_normal(n))
        probes = []
        beta = 3.0 * rng.standard_normal(p)
        res = residuals(data, beta)
        pi = consistent_permutation(res)
        probes.append(("inside", pi, beta))
        probes.append(("outside", pi, beta + 5.0 * rng.standard_normal(p)))
        del posed[:]
        fits = [minimize(data, alpha, beta0=beta)]
        landed = [posed[0]] if (posed[0] != beta).any() else []  # where the start step landed
        fits.append(minimize(data, alpha, beta0=cell_lp(data, alpha, pi, at=beta).point))
        for after in landed + [it.beta_star + it.d_star * it.direction
                               for fit in fits for it in fit.trace if it.d_star is not None]:
            res = residuals(data, after)
            probes.append(("post-step", consistent_permutation(res), after))
        for name, pi, at in probes:
            if name == "post-step" and np.diff(residuals(data, at).e[list(pi)]).min() < 0.0:
                seen["crossed"] += 1  # a tie crossed within tie_tol: some rows start infeasible
            want = cell_lp(data, alpha, pi)
            got = cell_lp(data, alpha, pi, at=at)
            assert type(got) is type(want), (t, name)
            if isinstance(want, LpOptimal):
                assert abs(got.value - want.value) <= 1e-9 * (1.0 + abs(want.value)), (t, name)
                assert in_region(data, pi, got.point)
            else:
                assert isinstance(want, LpUnbounded)
                assert in_region(data, pi, got.point)
                assert in_region(data, pi, got.point + 10.0 * got.ray)
                seen["unbounded"] += 1
            seen[name] += 1
    assert seen["inside"] == seen["outside"] == 32
    assert seen["post-step"] >= 24 and seen["crossed"] >= 8 and seen["unbounded"] >= 4


def test_cell_lp_rejects_non_permutation(worked):
    data, alpha = worked
    for ordering in ((0, 0, 1), (0.0, 1.0, 2.0)):
        with pytest.raises(ValueError, match="is not a permutation"):
            cell_lp(data, alpha, ordering)


def test_improving_direction_worked(worked):
    data, alpha = worked
    res = residuals(data, [-1.0])
    found = improving_direction(data, alpha, active_pairs(res))
    assert found is not None
    step = 1e-4 * found / np.abs(found).max()
    assert eval_loss(data, alpha, np.array([-1.0]) + step) < eval_loss(data, alpha, [-1.0])

    res = residuals(data, [0.0])
    assert improving_direction(data, alpha, active_pairs(res)) is None


def test_improving_direction_single_observation():
    data = RegressionData(np.array([[1.0]]), np.array([0.0]))
    alpha = ScoreVector([1.0])
    res = residuals(data, [0.0])
    found = improving_direction(data, alpha, active_pairs(res))
    assert found is not None and found.shape == (1,)


def test_improving_direction_is_steepest_in_the_qr_norm(worked):
    # At beta = -1 observations 1 and 2 tie, so D(ell) = -ell for ell > 0 and
    # 2|ell| otherwise; over |R ell| <= 1, R = sqrt(5), the steepest is 1/sqrt(5).
    data, alpha = worked
    res = residuals(data, [-1.0])
    found = improving_direction(data, alpha, active_pairs(res))
    R = np.linalg.qr(data.x, mode="r")
    assert np.abs(R @ found).max() <= 1.0 + 1e-9
    np.testing.assert_allclose(found, [1.0 / np.sqrt(5.0)], rtol=1e-9)


def test_breakpoints_worked(worked):
    data, _ = worked
    bps = breakpoints(data, [-1.0], [1.0])
    assert dict(bps.entries) == {(0, 1): 2.0, (0, 2): 1.0}  # the tied pair at d=0 is dropped


def test_breakpoints_parallel_direction_empty():
    data = RegressionData(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
    assert breakpoints(data, [0.0, 0.0], [0.0, 1.0]).entries == ()


def test_breakpoints_negative_steps_excluded():
    data = RegressionData(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    assert breakpoints(data, [0.0], [-1.0]).entries == ()


def test_breakpoints_rejects_bad_direction(worked):
    data, _ = worked
    with pytest.raises(ValueError):
        breakpoints(data, [0.0], [0.0])
    with pytest.raises(ValueError):
        breakpoints(data, [0.0], [1.0, 2.0])


@pytest.mark.parametrize("direction, message", [
    ([math.nan, 1.0], "finite vector of width p"), ([math.inf, 1.0], "finite vector of width p"),
    ([0.0, 0.0], "nonzero"), ([1.0], "finite vector of width p"), ([1.0, 2.0, 3.0], "finite vector of width p"),
], ids=["nan", "inf", "zero", "short", "long"])
def test_line_search_rejects_bad_direction(direction, message):
    rng = np.random.default_rng(3)
    data = RegressionData(np.column_stack([np.ones(10), rng.standard_normal(10)]), rng.standard_normal(10))
    alpha = make_scores("wilcoxon", 10)
    bps = breakpoints(data, [0.0, 0.0], [1.0, 1.0])
    assert bps.steps.size
    with pytest.raises(ValueError, match=f"direction must be (a )?{message}"):
        line_search(data, alpha, [0.0, 0.0], direction, bps)


def test_breakpoints_returns_the_arrays_it_built_frozen(worked):
    data, alpha = worked
    bps = breakpoints(data, [-1.0], [1.0])
    assert bps.pairs.dtype == np.intp and bps.steps.dtype == float
    for arr in (bps.pairs, bps.steps):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    assert line_search(data, alpha, [-1.0], [1.0], bps) == 1.0  # sorts a copy of the steps
    assert bps.pairs.tolist() == [[0, 1], [0, 2]] and bps.steps.tolist() == [2.0, 1.0]  # unchanged, in (i, j) order


def test_breakpoints_land_on_tie_hyperplanes():
    rng = np.random.default_rng(31)
    landed = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        data = RegressionData(rng.integers(-3, 4, size=(n, p)).astype(float),
                              rng.integers(-3, 4, size=n).astype(float))
        beta = rng.normal(size=p)
        ell = rng.integers(-2, 3, size=p).astype(float)
        if not ell.any():
            ell[0] = 1.0
        for (i, j), d in breakpoints(data, beta, ell).entries:
            e = residuals(data, beta + d * ell).e
            assert abs(e[i] - e[j]) <= 1e-7 * (1.0 + max(abs(e[i]), abs(e[j])))
            landed += 1
    assert landed > 100


def test_line_search_worked(worked):
    data, alpha = worked
    bps = breakpoints(data, [-1.0], [1.0])
    assert line_search(data, alpha, [-1.0], [1.0], bps) == 1.0
    single = Breakpoints([(0, 1)], [2.5])
    assert line_search(data, alpha, [-1.0], [1.0], single) == 2.5


def test_line_search_ties_take_smallest_step(worked):
    data, _ = worked
    flat = ScoreVector([0.0, 0.0, 0.0])  # loss identically zero along the ray
    bps = breakpoints(data, [-2.0], [1.0])
    assert len(bps.entries) == 3
    assert line_search(data, flat, [-2.0], [1.0], bps) == min(d for _, d in bps.entries)


def test_line_search_requires_breakpoints(worked):
    data, alpha = worked
    with pytest.raises(ValueError):
        line_search(data, alpha, [0.0], [1.0], Breakpoints((), ()))


def test_minimize_worked(worked):
    data, alpha = worked
    out = minimize(data, alpha, beta0=[-2.0])
    assert isinstance(out, Minimizer)
    assert abs(out.beta_opt[0]) < 1e-9
    assert abs(out.f_opt - 1.0) < 1e-9
    assert len(out.trace) <= 3
    final = out.trace[-1]
    assert final.direction is None and final.d_star is None
    np.testing.assert_array_equal(final.beta_star, out.beta_opt)
    f_seq = [it.f_star for it in out.trace]
    assert all(b < a for a, b in zip(f_seq, f_seq[1:]))
    assert len({it.pi for it in out.trace}) == len(out.trace)


def test_minimize_accepts_raw_weights(worked):
    data, _ = worked
    out = minimize(data, [1.0, 0.0, -1.0], beta0=[-2.0])  # sorted on entry
    assert isinstance(out, Minimizer)
    assert abs(out.f_opt - 1.0) < 1e-9
    with pytest.raises(ValueError, match="^2 weights for 3 observations$"):
        minimize(data, [1.0, 2.0])


def test_minimize_single_observation_unbounded():
    data = RegressionData(np.array([[1.0]]), np.array([0.0]))
    out = minimize(data, [1.0])
    assert isinstance(out, Unbounded)
    [region] = out.trace  # the region the cell LP found unbounded
    assert region.beta_star is out.point and region.direction is out.ray and region.d_star is None
    f = eval_loss(data, [1.0], out.point)
    for t in (1.0, 10.0, 100.0):
        ft = eval_loss(data, [1.0], out.point + t * out.ray)
        assert ft < f
        f = ft


def test_every_unbounded_trace_ends_at_its_ray(monkeypatch):
    """Whether the cell LP or the descent ray finds it, an Unbounded's trace
    ends with the iteration of its region, at its point and along its ray."""
    found_by_cell = []
    original = rankwalk.woa.cell_lp

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        found_by_cell.append(isinstance(out, LpUnbounded))
        return out

    monkeypatch.setattr(rankwalk.woa, "cell_lp", spy)
    rng = np.random.default_rng(0)
    paths = {True: 0, False: 0}
    for _ in range(60):
        data, alpha = random_instance(rng)
        out = minimize(data, alpha)
        if not isinstance(out, Unbounded):
            continue
        paths[found_by_cell[-1]] += 1
        last = out.trace[-1]
        assert last.beta_star is out.point and last.d_star is None
        scale = float(np.abs(out.ray).max()) / float(np.abs(last.direction).max())
        np.testing.assert_allclose(scale * last.direction, out.ray, rtol=1e-15, atol=0.0)
        assert last.f_star == pytest.approx(eval_loss(data, alpha, out.point), rel=1e-12, abs=1e-12)
    assert paths[True] >= 1 and paths[False] >= 1, paths


def test_minimize_intercept_only_constant_loss():
    data = RegressionData(np.ones((3, 1)), np.array([0.0, 1.0, 0.0]))
    alpha = [-1.0, 0.0, 1.0]
    out = minimize(data, alpha)
    assert isinstance(out, Minimizer)
    assert abs(out.f_opt - 1.0) < 1e-9
    out = minimize(data, alpha, beta0=[5.0])
    assert isinstance(out, Minimizer)
    assert abs(out.f_opt - 1.0) < 1e-9


def test_minimize_tie_break_independence(worked):
    data, alpha = worked
    rng = np.random.default_rng(13)
    for trial in range(30):
        if trial:
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, 3))
            data = RegressionData(rng.integers(-3, 4, size=(n, p)).astype(float),
                                  rng.integers(-3, 4, size=n).astype(float))
            alpha = ScoreVector(np.sort(rng.integers(-3, 4, size=n)).astype(float))
        # Reversing the rows lists every tie block by descending original
        # index, so the walk breaks each tie the other way.
        asc = minimize(data, alpha)
        desc = minimize(RegressionData(data.x[::-1], data.y[::-1]), alpha)
        assert isinstance(asc, Minimizer) == isinstance(desc, Minimizer)
        if isinstance(asc, Minimizer):
            assert abs(asc.f_opt - desc.f_opt) < 1e-9


def test_minimize_iteration_budget():
    data, alpha, beta0 = raise_fit()  # a fit of two iterations
    with pytest.raises(IterationBudgetError) as info:
        minimize(data, alpha, beta0, max_iter=1)
    assert len(info.value.trace) == 1


def raise_numeric(original, earlier, *args, **kwargs):
    raise LpNumericError("pivot budget exhausted")


def returns(make):
    """A replacement that returns ``make(original, earlier, args, kwargs)``."""
    return lambda original, earlier, *args, **kwargs: make(original, earlier, args, kwargs)


def short_of_one(original, earlier, *args):
    found = original(*args)
    return OptimalityCertificate._of_terms(0.999 * found.weights, found.orders)


MINIMIZE = rankwalk.woa.minimize.__code__


def call_site() -> tuple[int | None, str]:
    """Where ``minimize`` stands during the current call: its iteration (None
    in the start step), and the name that the statement it is executing
    assigns."""
    frame = sys._getframe(1)
    while frame.f_code is not MINIMIZE:
        frame = frame.f_back
    line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
    return frame.f_locals.get("it"), line.split("=", 1)[0].strip()


def raise_fit():
    """A fit of two iterations from the origin at p = 3: the start step lands
    in a region whose minimum is not the minimizer.  At p = 2 with an
    intercept the walk certifies in one iteration from every start, tied or
    not."""
    rng = np.random.default_rng(0)
    x = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
    data = RegressionData(x, x @ rng.standard_normal(3) + rng.standard_t(2, 40))
    return data, make_scores("wilcoxon", 40), None


# Layer, error, its message's start, the call replaced and its replacement.
# A call is (name in rankwalk.woa, minimize's iteration, the name minimize
# assigns when it is made): ("cell_lp", 1, "out") is iteration 1's cell LP.
RAISE_SITES = [
    # iteration 1 starts where iteration 0 did: where the start step landed
    pytest.param("walk", WalkInvariantError, "ordering (", ("residuals", 0, "res"),
                 returns(lambda f, earlier, args, kwargs: earlier[0]), id="revisited"),
    # iteration 1's region minimum is iteration 0's
    pytest.param("walk", WalkInvariantError, "region minimum", ("cell_lp", 1, "out"),
                 returns(lambda f, earlier, args, kwargs: earlier[0]), id="not-improved"),
    pytest.param("walk", IterationBudgetError, "no terminal state", None, None,  # max_iter = 1
                 id="budget"),
    pytest.param("cell_lp", WalkNumericError, "cell_lp failed", ("cell_lp", 1, "out"), raise_numeric,
                 id="cell-refused"),
    pytest.param("cell_lp", WalkInvariantError, "region of the current ordering", ("cell_lp", 1, "out"),
                 returns(lambda f, earlier, args, kwargs: LpInfeasible()), id="cell-empty"),
    # iteration 1's region minimum, where the residuals overflow
    pytest.param("cell_lp", WalkError, "the residuals at the region minimum overflow", ("cell_lp", 1, "out"),
                 returns(lambda f, earlier, args, kwargs: LpOptimal(np.full(3, 1e308), -1e300, earlier[0].dual)),
                 id="cell-overflow"),
    # iteration 1's region is unbounded along a zero ray
    pytest.param("ray", WalkInvariantError, "claimed ray fails", ("cell_lp", 1, "out"),
                 returns(lambda f, earlier, args, kwargs: LpUnbounded(f(*args, **kwargs).point, np.zeros(3))),
                 id="cell-ray"),
    # iteration 0's descent ray has no breakpoints
    pytest.param("ray", WalkInvariantError, "claimed ray fails", ("_steps", 0, "d_star"),
                 returns(lambda f, earlier, args, kwargs: (f(*args)[0], np.empty(0))), id="descent-ray"),
    pytest.param("descent_search", WalkNumericError, "descent_search failed", ("_descent_search", 1, "found"),
                 raise_numeric, id="descent-refused"),
    pytest.param("certificate", WalkInvariantError, "certificate failed verification",
                 ("_descent_search", 1, "found"), short_of_one, id="certificate"),
]


@pytest.mark.parametrize("layer, error, message, site, replacement", RAISE_SITES)
def test_every_walk_error_names_its_layer_and_keeps_the_trace(monkeypatch, layer, error, message, site,
                                                              replacement):
    """Each raise of ``minimize`` (and of ``_require_descending_ray``), forced
    on a fit of two iterations, names its layer and carries the iterations
    before the failure: the first, and when a claimed ray fails, also the
    region it was claimed in.  A refused simplex is chained as the cause.
    The call replaced is named by where ``minimize`` makes it, and is
    replaced exactly once."""
    data, alpha, beta0 = raise_fit()
    full = minimize(data, alpha, beta0)
    assert isinstance(full, Minimizer) and len(full.trace) == 2
    name, at = (site[0], site[1:]) if site is not None else (None, None)
    replaced = []
    if name is not None:
        original = getattr(rankwalk.woa, name)
        earlier = []

        def wrapped(*args, **kwargs):
            if call_site() == at:
                replaced.append(at)
                out = replacement(original, earlier, *args, **kwargs)
            else:
                out = original(*args, **kwargs)
            earlier.append(out)
            return out

        monkeypatch.setattr(rankwalk.woa, name, wrapped)
    with pytest.raises(error) as info:
        minimize(data, alpha, beta0, max_iter=1 if name is None else None)
    assert replaced == ([] if name is None else [at])
    err = info.value
    assert type(err) is error and isinstance(err, WalkError) and err.layer == layer
    assert str(err).startswith(message)
    assert isinstance(err.__cause__, LpNumericError) == (error is WalkNumericError)
    assert type(err.trace) is tuple
    kept = err.trace
    assert [(it.pi, it.f_star) for it in kept[:1]] == [(it.pi, it.f_star) for it in full.trace[:1]]
    if name != "_steps":  # the first iteration is whole, its step included
        assert kept[0].d_star == full.trace[0].d_star
    if name == "cell_lp" and layer == "ray":  # iteration 1's region, claimed along the zero ray
        assert len(kept) == 2 and kept[1].pi == full.trace[1].pi and not kept[1].direction.any()
    else:
        assert len(kept) == 1


@pytest.mark.parametrize("value", [0, 2.5, float("nan"), True, "3"])
def test_config_rejects_a_bad_iteration_cap(worked, value):
    """``minimize``'s one option, ``max_iter``, is refused unless it is an
    integer of at least 1."""
    data, alpha = worked
    with pytest.raises(ValueError, match="^max_iter must be an integer"):
        minimize(data, alpha, max_iter=value)


def test_config_accepts_a_numpy_iteration_cap(worked):
    data, alpha = worked
    out = minimize(data, alpha, beta0=[-2.0], max_iter=np.int64(5))
    assert isinstance(out, Minimizer)


def test_config_validation(worked):
    """The cap is a keyword argument only, and is checked on entry: before
    the weights and the start."""
    data, alpha = worked
    with pytest.raises(ValueError, match="^max_iter must be an integer of at least 1, got 0$"):
        minimize(data, [1.0], beta0=[1.0, 2.0], max_iter=0)
    with pytest.raises(TypeError):
        minimize(data, alpha, None, 5)


def test_descending_ray_guard(worked):
    data, alpha = worked
    with pytest.raises(WalkInvariantError) as info:
        _require_descending_ray(data, alpha, np.array([1.0]), ())
    assert info.value.layer == "ray" and info.value.trace == ()


def test_descending_ray_guard_reads_the_slope_at_infinity(worked):
    """With only the top weight the loss is the largest residual, which falls
    along beta = t * 1e307 only while residual 1 leads; far out residual 0,
    which does not move, is the largest, so the slope at infinity is 0 and
    the ray is refused, with no loss evaluated along it.  Along 1e308,
    x . ray itself overflows: a WalkError of the ray."""
    data, _ = worked
    with pytest.raises(WalkInvariantError) as info:
        _require_descending_ray(data, [0.0, 0.0, 1.0], np.array([1e307]), ())
    assert info.value.layer == "ray" and info.value.trace == ()
    assert str(info.value) == "claimed ray fails: the loss's slope along it at infinity is 0.0"
    with pytest.raises(WalkError) as info:
        _require_descending_ray(data, [0.0, 0.0, 1.0], np.array([1e308]), ())
    assert type(info.value) is WalkError and info.value.layer == "ray" and info.value.trace == ()
    assert str(info.value) == "x . ray of the claimed ray is not finite"


# Column 1 x 2^20 on data whose base fit certifies: the first cell LP
# reports a ray along which F falls at t = 1, 10 and 100 and far beyond,
# yet F's slope along it at infinity is +1.4e-8 and +4.1e-8.  The walk
# refuses the ray (until its LP reads x at scale, ROADMAP item 2, and
# certifies a minimizer); it never returns it.
@pytest.mark.parametrize("seed, n, p, kind", [(3, 120, 4, "wilcoxon"), (0, 200, 6, "van_der_waerden")])
@pytest.mark.parametrize("mirrored", [False, True])
def test_a_ray_along_which_the_loss_is_bounded_is_never_unbounded(seed, n, p, kind, mirrored):
    base = bench_cases().continuous(seed, n, p)
    x = base.x.copy()
    x[:, 1] *= 2.0 ** 20
    data, alpha = RegressionData(x, base.y), mirrored_scores(kind, n) if mirrored else make_scores(kind, n)
    try:
        out = minimize(data, alpha)
    except WalkInvariantError as exc:
        assert exc.layer == "ray" and str(exc).startswith("claimed ray fails")
    else:
        assert isinstance(out, Minimizer)
        assert verify_certificate(data, alpha, out.beta_opt, out.certificate).ok


def test_walk_steps_match_the_public_ray_search():
    """The walk searches each ray on the array core behind ``breakpoints``
    and ``line_search``; every recorded step is what the two give."""
    rng = np.random.default_rng(8)
    searched = 0
    for t in range(6):
        n, p = 40, 2 + t % 3
        x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        if t % 2:
            x = np.round(2.0 * x)
        data = RegressionData(x, np.round(x @ rng.standard_normal(p) + rng.standard_t(2, n), 1))
        alpha = make_scores(("sign", "wilcoxon", "van_der_waerden")[t % 3], n)
        out = minimize(data, alpha)
        assert isinstance(out, Minimizer)
        for it in out.trace[:-1]:
            res = residuals(data, it.beta_star)
            bps = breakpoints(data, res, it.direction)
            assert line_search(data, alpha, res, it.direction, bps) == it.d_star
            searched += 1
    assert searched >= 10


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_walk_rejects_a_bad_default_tie_tolerance(monkeypatch, worked, bad):
    """A tie tolerance that is not finite, which only residuals holding NaN
    or an infinity give, raises the ValueError of ``active_pairs``."""
    monkeypatch.setattr(rankwalk.loss, "_tie_tol_at", lambda top: bad)
    data, alpha = worked
    with pytest.raises(ValueError, match="^the residuals must be finite to be cut into tie blocks$"):
        minimize(data, alpha)
