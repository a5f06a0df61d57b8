"""CI's gates past the tier-1 suite, one named function each.

    PYTHONPATH=src:tests:perfbench python tests/gates.py oracle

Run from the root of a checkout; the only argument is the gate's name
(``python tests/gates.py`` alone lists them).  A gate prints what it fits
and returns the problems it found, and the run exits with them (status 1)
or with status 0 when there are none.  At import the module reads only the
standard library and numpy: each gate imports the package and the data
generators it fits, so each runs under its own step's PYTHONPATH (``src``
for the package, ``tests`` for ``tie_data`` and ``reference_slope``,
``perfbench`` for ``cases``), and the three workload gates need none, since
``perfbench/run.py`` finds the package itself.  The bounds are the
constants beside each gate.
"""

from __future__ import annotations

import ast
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tokenize
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GATES = {}


def gate(fn):
    """Register ``fn`` under its name, with hyphens for underscores."""
    GATES[fn.__name__.replace("_", "-")] = fn
    return fn


def count_walk() -> dict:
    """Wrap three layers of the package and return the dict of counts that
    they update from then on; a gate may reset a count between fits.

    - ``masters``: descent master LPs (``certificate._solve_by_dual``).  None
      runs where the cell LP's dual certifies the point.
    - ``warm``: cell LPs that the rows tied at their point (after a step,
      the rows where the ray landed) solved without the simplex
      (``lp._from_rows``).
    - ``blocks``: the number of tie blocks K, blocks of more than one rank,
      at each descent search, read from ``ActivePairs.label``.
    """
    import rankwalk.certificate
    import rankwalk.lp
    import rankwalk.woa

    counts = dict(masters=0, warm=0, blocks=[])
    solve_by_dual, descent_search = rankwalk.certificate._solve_by_dual, rankwalk.woa._descent_search
    from_rows = rankwalk.lp._from_rows

    def counted(*args):
        counts["masters"] += 1
        return solve_by_dual(*args)

    def searched(data, a, ap, *args):
        counts["blocks"].append(int(np.count_nonzero(np.bincount(ap.label) > 1)))
        return descent_search(data, a, ap, *args)

    def started(*args):
        out = from_rows(*args)
        counts["warm"] += out is not None
        return out

    rankwalk.certificate._solve_by_dual = counted
    rankwalk.woa._descent_search = searched
    rankwalk.lp._from_rows = started
    return counts


def timed(fn, *args):
    """``fn(*args)`` and the seconds it took."""
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def check(data, alpha, out):
    """The certificate check of a ``Minimizer``; None for any other outcome."""
    import rankwalk

    if isinstance(out, rankwalk.Minimizer):
        return rankwalk.verify_certificate(data, alpha, out.beta_opt, out.certificate)
    return None


def certified(data, alpha, out) -> bool:
    """``out`` is a ``Minimizer`` whose certificate checks."""
    report = check(data, alpha, out)
    return report is not None and report.ok


def code_lines(text: str) -> int:
    """The lines of Python source ``text`` that hold code: not blank, not
    only a comment and not part of a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    prose = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in prose:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


@gate
def large_fit() -> list[str]:
    """A Wilcoxon fit at n = 4000 certifies, and its check builds no n x n G."""
    import cases
    import rankwalk

    counts = count_walk()
    data = cases.continuous(1, 4000, 3)
    alpha = rankwalk.make_scores("wilcoxon", data.n)
    out, seconds = timed(rankwalk.minimize, data, alpha)
    fit_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    if not isinstance(out, rankwalk.Minimizer):
        return [f"expected a Minimizer, got {type(out).__name__}"]
    report, verify_seconds = timed(check, data, alpha, out)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"f_opt {out.f_opt!r} in {len(out.trace)} iterations, {counts['masters']} descent master "
          f"solves, {counts['warm']} cell LPs started warm, failures {report.failures}")
    print(f"fit {seconds:.2f} s, peak RSS {fit_peak_mb:.0f} MB before verification")
    print(f"verify_certificate {verify_seconds * 1e3:.1f} ms, peak RSS {peak_mb:.0f} MB after it")
    sources = [path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))]
    print(f"src/ {sum(len(text.splitlines()) for text in sources)} lines, "
          f"{sum(map(code_lines, sources))} of them code")
    if "G" in vars(out.certificate):
        return ["verify_certificate built the n x n G of the walk's certificate"]
    return [] if report.ok else [f"the certificate failed verification: {report.failures}"]


GRID_SECONDS = 3.0  # per fit


@gate
def tie_grids() -> list[str]:
    """Fits through thousands of exact ties certify within GRID_SECONDS each."""
    import rankwalk
    from tie_data import grid

    counts = count_walk()
    problems = []
    for n, kind in ((4000, "wilcoxon"), (4000, "sign"), (6000, "wilcoxon")):
        data = grid(0, n, 4, 5)
        alpha = rankwalk.make_scores(kind, n)
        counts.update(masters=0, blocks=[])
        out, seconds = timed(rankwalk.minimize, data, alpha)
        ok = certified(data, alpha, out)
        print(f"grid(0, {n}, 4, 5) {kind}: {seconds:.2f} s, {type(out).__name__}, verified {ok}, "
              f"{len(out.trace)} iterations, {counts['masters']} descent master solves, "
              f"largest K {max(counts['blocks'])}")
        if not ok:
            problems.append(f"grid(0, {n}, 4, 5) {kind} did not certify and verify")
        if seconds > GRID_SECONDS:
            problems.append(f"grid(0, {n}, 4, 5) {kind} took {seconds:.2f} s")
    return problems


TRACE_MB = 2.0  # the trace file must be smaller
TRACED_RSS = 1.1  # the traced fit's peak RSS, at most this times the untraced one's

PROBE = ("import json, resource, sys, time\n"
         "from rankwalk.cli import main\n"
         "start = time.perf_counter()\n"
         "code = main(sys.argv[1:])\n"
         "print(json.dumps({'code': code, 'seconds': time.perf_counter() - start,\n"
         "                  'peak_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))\n")


@gate
def trace_size() -> list[str]:
    """``rankwalk fit --trace`` at n = 4000 writes a small trace at the
    untraced fit's memory; each fit runs in its own process."""
    import cases

    data = cases.continuous(1, 4000, 2)
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, trace_path = os.path.join(tmp, "data.csv"), os.path.join(tmp, "trace.json")
        np.savetxt(csv_path, np.column_stack([data.y, data.x]), fmt="%.17g", delimiter=",",
                   header="y," + ",".join(f"x{k + 1}" for k in range(data.p)), comments="")
        for name, extra in (("untraced", []), ("traced", ["--trace", trace_path])):
            done = subprocess.run([sys.executable, "-c", PROBE, "fit", csv_path, "--scores", "wilcoxon", *extra],
                                  capture_output=True, text=True)
            print(done.stdout, done.stderr, sep="", end="")
            runs[name] = json.loads(done.stdout.splitlines()[-1])
            print(f"{name}: exit {runs[name]['code']}, {runs[name]['seconds']:.2f} s, "
                  f"peak RSS {runs[name]['peak_mb']:.0f} MB")
        trace_mb = os.path.getsize(trace_path) / 2**20
    print(f"trace file {trace_mb:.2f} MB")
    problems = [f"{name} exit code {r['code']}" for name, r in runs.items() if r["code"] != 0]
    if trace_mb >= TRACE_MB:
        problems.append(f"the trace file is {TRACE_MB:g} MB or larger")
    if runs["traced"]["peak_mb"] > TRACED_RSS * runs["untraced"]["peak_mb"]:
        problems.append(f"the traced peak RSS is more than {TRACED_RSS:g} times the untraced one")
    return problems


# The counts on these 600 fits with the start step taken wherever it lowers
# F and every direction from the master; a change may lower them, not raise
# them.
ORACLE_MASTERS = 1425
ORACLE_ITERATIONS = 918


@gate
def oracle() -> list[str]:
    """The walk matches the exhaustive oracle on 600 fits at n = 8, every
    certificate verifies, the master runs at most ORACLE_MASTERS times and
    the walk at most ORACLE_ITERATIONS iterations."""
    import cases
    import rankwalk

    counts = dict(fits=0, bounded=0, disagreements=0, walk_errors=0, brute_force_mismatches=0,
                  iterations=0, master_solves=0, warm_cell_lps=0, minimizers=0,
                  certificate_failures=0)
    walk_counts = count_walk()
    for seed in range(25):
        for generator in (cases.continuous, cases.integer_grid):
            for p in range(1, 5):
                data = generator(seed, 8, p)
                label = f"{generator.__name__}({seed}, 8, {p})"
                for kind in cases.KINDS:
                    alpha = rankwalk.make_scores(kind, 8)
                    counts["fits"] += 1
                    reference = rankwalk.oracle_minimize(data, alpha)
                    try:
                        walk = rankwalk.minimize(data, alpha)
                    except rankwalk.WalkError as exc:
                        counts["walk_errors"] += 1
                        print(f"{label} {kind}: {exc!r}")
                        continue
                    counts["iterations"] += len(walk.trace)
                    report = check(data, alpha, walk)
                    if report is not None:
                        counts["minimizers"] += 1
                        off = abs(report.certified_value - walk.f_opt) if report.ok else None
                        if off is None or off > 1e-7 * (1.0 + abs(walk.f_opt)):
                            counts["certificate_failures"] += 1
                            print(f"{label} {kind}: {report.failures}, "
                                  f"certified {report.certified_value!r} vs f_opt {walk.f_opt!r}")
                    if reference.unbounded:
                        counts["disagreements"] += isinstance(walk, rankwalk.Minimizer)
                        continue
                    counts["bounded"] += 1
                    tol = 1e-9 * (1.0 + abs(reference.value))
                    brute = rankwalk.eval_loss_bruteforce(data, alpha, reference.point)
                    counts["brute_force_mismatches"] += abs(brute - reference.value) > tol
                    counts["disagreements"] += not (isinstance(walk, rankwalk.Minimizer)
                                                    and abs(walk.f_opt - reference.value) <= tol)
    counts.update(master_solves=walk_counts["masters"], warm_cell_lps=walk_counts["warm"])
    print(counts)
    problems = [f"{counts[name]} {name}" for name in
                ("disagreements", "walk_errors", "brute_force_mismatches", "certificate_failures") if counts[name]]
    return problems + [f"{counts[name]} {name}, more than {most}" for name, most in
                       (("master_solves", ORACLE_MASTERS), ("iterations", ORACLE_ITERATIONS)) if counts[name] > most]


SLOPE_OFF = 1e-12  # f_opt and the slope, relative to the exact minimum
Y_OUTLIER_OFF = Fraction(1e-9)  # a y-outlier fit is wrong past this share of the descent F(0) - F*
Y_OUTLIER_GATED = (1e5, 1e6, 1e8)  # every y-outlier fit at these y[-1] must be right; 1e10 is reported only


@gate
def exact_slope() -> list[str]:
    """The walk reaches the exact slope at n = 2000 within SLOPE_OFF, and
    every fit of the p = 2 y-outlier sweep is right at each y[-1] of
    Y_OUTLIER_GATED; the sweep at 1e10 is reported, not gated."""
    import cases
    import rankwalk
    from reference_slope import exact_loss, mirrored_scores, slope_minimum

    problems = []
    for seed in (0, 1):
        data = cases.continuous(seed, 2000, 2)
        for kind in cases.KINDS:
            alpha = mirrored_scores(kind, 2000)
            exact, ref_seconds = timed(slope_minimum, data.x[:, 1], data.y, alpha.alpha)
            out, seconds = timed(rankwalk.minimize, data, alpha)
            ok = isinstance(out, rankwalk.Minimizer)
            if ok:
                slope = Fraction(out.beta_opt[1])
                off_f = abs(Fraction(out.f_opt) - exact.f) / exact.f
                off_b = max(exact.lo - slope, slope - exact.hi, 0) / max(abs(exact.lo), abs(exact.hi))
                ok = off_f <= SLOPE_OFF and off_b <= SLOPE_OFF
                print(f"continuous({seed}, 2000, 2) {kind}: walk {seconds:.2f} s, exact {ref_seconds:.2f} s, "
                      f"f_opt off {float(off_f):.1e}, slope off {float(off_b):.1e} relative")
            if not ok:
                problems.append(f"continuous({seed}, 2000, 2) {kind} missed the exact minimum: {out!r}")
    # A fit is wrong when F at its slope, computed exactly, exceeds the exact
    # minimum F* by more than Y_OUTLIER_OFF (F(0) - F*).
    for y_last in (*Y_OUTLIER_GATED, 1e10):
        counts = dict(right=0, wrong_verified=0, wrong_refused=0, walk_errors=0)
        for n in (40, 200):
            for seed in range(12):
                base = cases.continuous(seed, n, 2)
                y = base.y.copy()
                y[-1] = y_last
                data = rankwalk.RegressionData(base.x, y)
                for kind in cases.KINDS:
                    alpha = mirrored_scores(kind, n)
                    exact = slope_minimum(data.x[:, 1], data.y, alpha.alpha)
                    f_zero = exact_loss(data.x[:, 1], y, alpha.alpha, 0)
                    try:
                        out = rankwalk.minimize(data, alpha)
                    except rankwalk.WalkError:
                        counts["walk_errors"] += 1
                        continue
                    f_walk = exact_loss(data.x[:, 1], y, alpha.alpha, out.beta_opt[1])
                    if f_walk - exact.f <= Y_OUTLIER_OFF * (f_zero - exact.f):
                        counts["right"] += 1
                    elif certified(data, alpha, out):
                        counts["wrong_verified"] += 1
                    else:
                        counts["wrong_refused"] += 1
        print(f"y-outlier sweep, p = 2, y[-1] = {y_last:.0e}: {counts}")
        if y_last in Y_OUTLIER_GATED and counts["right"] != sum(counts.values()):
            problems.append(f"the y-outlier sweep at y[-1] = {y_last:.0e} has fits that are wrong or raise: {counts}")
    return problems


CERTIFIED_UP_TO = 300  # the walk certifies every fit at y x 10^k, k <= this


@gate
def response_scale() -> list[str]:
    """The response-scale sweep at n = 200 ends in results or typed
    refusals, and the walk certifies every fit up to y x 10^CERTIFIED_UP_TO."""
    import cases
    import rankwalk

    problems = []
    for k in (0, 160, 250, 300, 303, 305):
        counts = dict(certified=0, other_results=0, walk_errors=0, ggd_results=0, ggd_ray_refusals=0)
        for seed in range(3):
            base = cases.continuous(seed, 200, 3)
            data = rankwalk.RegressionData(base.x, base.y * 10.0 ** k)
            for kind in cases.KINDS:
                alpha = rankwalk.make_scores(kind, data.n)
                label = f"continuous({seed}, 200, 3), y x 1e{k}, {kind}"
                with warnings.catch_warnings():
                    # No NumPy warning up to the bound; past it the ray's steps and the cell LP overflow.
                    warnings.simplefilter("error" if k <= CERTIFIED_UP_TO else "ignore", RuntimeWarning)
                    try:
                        out = rankwalk.minimize(data, alpha)
                    except rankwalk.WalkError as exc:
                        counts["walk_errors"] += 1
                        print(f"{label}: WalkError ({exc.layer}) {exc}")
                    except Exception as exc:
                        problems.append(f"{label}: minimize raised {exc!r}")
                    else:
                        counts["certified" if certified(data, alpha, out) else "other_results"] += 1
                    try:
                        rankwalk.ggd_minimize(data, alpha)
                        counts["ggd_results"] += 1
                    except ValueError as exc:
                        counts["ggd_ray_refusals"] += 1
                        if str(exc) != "a breakpoint of the ray is not finite":
                            problems.append(f"{label}: ggd_minimize raised {exc!r}")
                    except Exception as exc:
                        problems.append(f"{label}: ggd_minimize raised {exc!r}")
        print(f"y x 1e{k}: {counts}")
        if k <= CERTIFIED_UP_TO and counts["certified"] != 9:
            problems.append(f"the walk certified {counts['certified']} of 9 fits at y x 1e{k}")
    return problems


def workload(name: str, seeds, seconds: float) -> list[str]:
    """Run ``perfbench/run.py`` untraced on workload ``name`` at each seed,
    NumPy's RuntimeWarnings as errors, and print its result line; a run
    fails unless that line reads correct with no failed fit."""
    problems = []
    for seed in seeds:
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "perfbench/run.py", "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        print(result)
        if not (result is not None and result["correct"] is True and result["failed"] == 0):
            problems.append(f"{name} at seed {seed}: exit {done.returncode}, result {result}")
    return problems


@gate
def walk_hard() -> list[str]:
    return workload("walk-hard", (0, 1), 9)


@gate
def walk() -> list[str]:
    return workload("walk", (0,), 5)


@gate
def ggd_line() -> list[str]:
    return workload("ggd-line", (0, 1), 5)


def main(argv: list[str]) -> int | str:
    if len(argv) != 1 or argv[0] not in GATES:
        print(f"usage: python tests/gates.py NAME, NAME one of: {', '.join(GATES)}", file=sys.stderr)
        return 2
    return "; ".join(GATES[argv[0]]()) or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
