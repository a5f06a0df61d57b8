"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a single
PASS/FAIL line past pytest's capture so the verdicts stay visible in the run
log.  Tolerances are pinned at the top; the randomized criteria share one
seeded 200-instance sweep.
"""

import time

import numpy as np
import pytest

from rankwalk import (
    Minimizer,
    OptimalityCertificate,
    RegressionData,
    ScoreVector,
    Unbounded,
    active_pairs,
    breakpoints,
    eval_loss,
    eval_loss_bruteforce,
    ggd_minimize,
    improving_direction,
    minimize,
    oracle_minimize,
    random_instance,
    region_bound,
    residuals,
    solve_certificate,
    verify_certificate,
)

SWEEP_SIZE = 200          # criterion 1 floor
SWEEP_SECONDS = 60.0
VALUE_TOL = 1e-7          # walk vs oracle, certified value vs loss
LOSS_EQUIV_TOL = 1e-10    # fast loss vs brute force
SHUFFLE_TOL = 1e-9        # optimal value under weight shuffles
DESCENT_STEP = 1e-6       # probe step for returned directions
HYPERPLANE_TOL = 1e-7     # relative residual match at breakpoints
BISTOCHASTIC_TOL = 1e-9

SWEEP_SEED = 20260816


@pytest.fixture
def report(capsys):
    def emit(num, name, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


@pytest.fixture(scope="module")
def sweep():
    """Seeded random instances solved by both the walk and the oracle."""
    rng = np.random.default_rng(SWEEP_SEED)
    runs = []
    t0 = time.perf_counter()
    for _ in range(SWEEP_SIZE):
        data, alpha = random_instance(rng)
        outcome = minimize(data, alpha)
        reference = oracle_minimize(data, alpha)
        runs.append((data, alpha, outcome, reference))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_01_oracle_equivalence(sweep, report):
    runs, elapsed = sweep
    mismatches = 0
    bounded = unbounded = 0
    for data, alpha, outcome, reference in runs:
        if reference.unbounded:
            unbounded += 1
            if not isinstance(outcome, Unbounded):
                mismatches += 1
        else:
            bounded += 1
            if not isinstance(outcome, Minimizer):
                mismatches += 1
            elif abs(outcome.f_opt - reference.value) > VALUE_TOL:
                mismatches += 1
    ok = mismatches == 0 and len(runs) >= SWEEP_SIZE and elapsed < SWEEP_SECONDS
    report(1, "oracle equivalence", ok,
           f"{len(runs)} instances, {bounded} bounded, {unbounded} unbounded, "
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_02_loss_evaluation_equivalence(report):
    rng = np.random.default_rng(SWEEP_SEED + 1)
    worst = 0.0
    pairs = 500
    for _ in range(pairs):
        n = int(rng.integers(1, 8))
        p = int(rng.integers(1, 4))
        data = RegressionData(rng.integers(-3, 4, size=(n, p)).astype(float),
                              rng.integers(-3, 4, size=n).astype(float))
        alpha = ScoreVector(rng.integers(-3, 4, size=n).astype(float))
        beta = rng.normal(size=p) * 2.0
        worst = max(worst, abs(eval_loss(data, alpha, beta)
                               - eval_loss_bruteforce(data, alpha, beta)))
    report(2, "loss evaluation equivalence", worst <= LOSS_EQUIV_TOL,
           f"{pairs} pairs, max deviation {worst:.2e}")


def test_03_weight_shuffle_invariance(report):
    rng = np.random.default_rng(SWEEP_SEED + 2)
    instances = 50
    worst = 0.0
    verdict_flips = 0
    for _ in range(instances):
        data, alpha = random_instance(rng)
        baseline = minimize(data, alpha)
        shuffled = minimize(data, ScoreVector(rng.permutation(alpha.alpha)))
        if isinstance(baseline, Minimizer) != isinstance(shuffled, Minimizer):
            verdict_flips += 1
        elif isinstance(baseline, Minimizer):
            worst = max(worst, abs(baseline.f_opt - shuffled.f_opt))
    report(3, "weight shuffle invariance",
           verdict_flips == 0 and worst < SHUFFLE_TOL,
           f"{instances} instances, max value change {worst:.2e}")


def test_04_descent_and_no_revisit(sweep, report):
    runs, _ = sweep
    traces = violations = 0
    for data, _, outcome, _ in runs:
        traces += 1
        records = outcome.trace
        f_seq = [rec.f_star for rec in records]
        if any(b >= a for a, b in zip(f_seq, f_seq[1:])):
            violations += 1
        if len({rec.pi for rec in records}) != len(records):
            violations += 1
        if len(records) > region_bound(data.n, data.p):
            violations += 1
    report(4, "strict descent and no revisit", violations == 0,
           f"{traces} traces, {violations} violations")


def test_05_improving_direction_soundness(sweep, report):
    runs, _ = sweep
    probes = failures = 0
    for data, alpha, outcome, _ in runs:
        for rec in outcome.trace:
            if rec.direction is None:
                continue
            probes += 1
            step = DESCENT_STEP * rec.direction / np.abs(rec.direction).max()
            if not eval_loss(data, alpha, rec.beta_star + step) < rec.f_star:
                failures += 1
    report(5, "improving directions strictly descend", probes > 0 and failures == 0,
           f"{probes} directions probed, {failures} failures")


def test_06_certificate_soundness(sweep, report):
    runs, _ = sweep
    verified = cert_failures = 0
    for data, alpha, outcome, _ in runs:
        if not isinstance(outcome, Minimizer):
            continue
        verified += 1
        rep = verify_certificate(data, alpha, outcome.beta_opt, outcome.certificate)
        if not rep.ok or abs(rep.certified_value - outcome.f_opt) > VALUE_TOL:
            cert_failures += 1

    rng = np.random.default_rng(SWEEP_SEED + 3)
    points = duality_failures = 0
    while points < 100:
        data, alpha = random_instance(rng)
        reference = oracle_minimize(data, alpha)
        beta = rng.integers(-4, 5, size=data.p).astype(float) + float(rng.choice([0.0, 0.5]))
        if (not reference.unbounded
                and eval_loss(data, alpha, beta) <= reference.value + 1e-6):
            continue
        points += 1
        ap = active_pairs(residuals(data, beta))
        has_direction = improving_direction(data, alpha, ap) is not None
        has_witness = solve_certificate(data, alpha, ap) is not None
        if has_direction == has_witness:
            duality_failures += 1
    ok = verified > 0 and cert_failures == 0 and duality_failures == 0
    report(6, "certificates verify and duality is exclusive", ok,
           f"{verified} minimizers verified, {points} non-optimal points, "
           f"{cert_failures + duality_failures} failures")


def test_07_worked_instance(report):
    data = RegressionData(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 0.0]))
    alpha = ScoreVector([-1.0, 0.0, 1.0])
    out = minimize(data, alpha, beta0=[-2.0])
    hand_g = np.array([[0.5, 0.0, 0.5], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    reference = oracle_minimize(data, alpha)
    ok = (isinstance(out, Minimizer)
          and abs(out.beta_opt[0]) <= 1e-9
          and abs(out.f_opt - 1.0) <= 1e-9
          and len(out.trace) <= 3
          and np.abs(out.certificate.G - hand_g).max() <= BISTOCHASTIC_TOL
          and not reference.unbounded
          and abs(reference.value - out.f_opt) <= VALUE_TOL)
    report(7, "worked three-point instance", ok,
           f"beta {out.beta_opt[0]:.2e}, value {out.f_opt:.12g}, "
           f"{len(out.trace)} iterations")


def test_08_unboundedness_witnesses(report):
    # top-weight-only instances whose rows all lie strictly on one side of a
    # hyperplane, so pushing along its normal sinks every residual at once
    rng = np.random.default_rng(SWEEP_SEED + 4)
    cases = 40
    failures = 0
    for _ in range(cases):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        normal = rng.integers(-2, 3, size=p).astype(float)
        if not normal.any():
            normal[0] = 1.0
        rows = []
        while len(rows) < n:
            row = rng.integers(-3, 4, size=p).astype(float)
            if row @ normal > 0:
                rows.append(row)
        data = RegressionData(np.array(rows), rng.integers(-3, 4, size=n).astype(float))
        alpha = np.zeros(n)
        alpha[-1] = 1.0
        out = minimize(data, alpha)
        if not isinstance(out, Unbounded):
            failures += 1
            continue
        f_prev = eval_loss(data, alpha, out.point)
        for t in (1.0, 10.0, 100.0):
            f_t = eval_loss(data, alpha, out.point + t * out.ray)
            if not f_t < f_prev:
                failures += 1
                break
            f_prev = f_t
    report(8, "unbounded verdicts carry descending rays", failures == 0,
           f"{cases} constructed instances, {failures} failures")


def test_09_ggd_comparison(report):
    # two regions with nearly parallel contours meet along a narrow valley;
    # exact-line-search descent crosses the floor in tiny zigzag increments
    data = RegressionData(np.array([[0.0, 0.0], [1.0, 20.0], [1.0, -20.0]]), np.zeros(3))
    alpha = [-1.0, 0.0, 1.0]
    start = [1.0, 0.02]
    walk = minimize(data, alpha, beta0=start)
    ok = isinstance(walk, Minimizer)
    detail = []
    if ok:
        for perturbation in ("prolong", "random"):
            baseline = ggd_minimize(data, alpha, beta0=start, perturbation=perturbation)
            ok = ok and baseline.trace.n_iterations > len(walk.trace)
            ok = ok and baseline.f >= walk.f_opt - 1e-12
            detail.append(f"{perturbation} {baseline.trace.n_iterations} iterations, "
                          f"final {baseline.f:.3g}")
        detail.append(f"walk {len(walk.trace)} iterations, "
                      f"certified {walk.f_opt:.3g}")
    report(9, "descent baseline needs strictly more iterations", ok, "; ".join(detail))


def test_10_breakpoint_geometry(sweep, report):
    runs, _ = sweep
    checked = misses = 0
    for data, _, outcome, _ in runs:
        for rec in outcome.trace:
            if rec.direction is None:
                continue
            bps = breakpoints(data, rec.beta_star, rec.direction)
            for (i, j), d in bps.entries:
                checked += 1
                e = residuals(data, rec.beta_star + d * rec.direction).e
                scale = 1.0 + max(abs(e[i]), abs(e[j]))
                if abs(e[i] - e[j]) > HYPERPLANE_TOL * scale:
                    misses += 1
    report(10, "breakpoints land on their tie hyperplanes", checked > 0 and misses == 0,
           f"{checked} breakpoints checked, {misses} off target")
