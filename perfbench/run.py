"""Seeded benchmark of rankwalk's ``minimize`` and ``ggd_minimize``.

    python3 perfbench/run.py --workload walk --seed 0 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process fits the cases of a workload one after another (closed loop, one
caller), with BLAS pinned to one thread.  It fits round 0 of the workload's
grid (see ``cases.py``) and then further rounds of fresh instances, as many
as fill about ``--seconds`` on a 2-core x86-64 host: a count fixed by the
workload and ``--seconds``, not by the clock, so that runs with one seed fit
the same cases.  It checks every output after the timed fits, and prints a
report line and then the result line, a JSON object whose
``metrics`` are:

- ``--trace 0``: ``wall_s`` (seconds to fit every grid entry once: the
  mean time of a round), ``setup_s`` (median of nine fresh processes that
  import the package, generate round 0 and build its weights) and
  ``peak_rss_mb`` (high-water mark after the fits of round 0, before the
  reference solver is imported).  The report line adds the number of fits
  and the median and largest seconds per fit; these order statistics of a
  mix of shapes jump with the seed (one ggd shape takes either about 0.1 s
  or about 0.7 s), so they are not metrics;
- ``--trace 1``: per-layer totals of one round, from spans recorded around
  the package's public functions.  Round 0 is fitted untraced, then traced,
  and the traced outputs must be bit-identical to the untraced ones.  Times
  are medians over traced repeats of round 0; counts come from one repeat.

A fit fails when it raises or when a check of its output fails; it is still
timed and counted.  ``correct`` is false when a returned output fails a check
(a wrong answer, as opposed to a raised error) or a traced output differs
from its untraced twin.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in the set-up probes

import argparse
import dataclasses
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
if not (SRC / "rankwalk" / "__init__.py").is_file():
    sys.exit(f"perfbench: no rankwalk package under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import rankwalk  # noqa: E402

import cases  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 9
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import cases
cases.build_round(cases.WORKLOADS[sys.argv[3]], int(sys.argv[4]), 0)
print(time.perf_counter() - t0)
"""

# Per-layer metrics read from the span totals, with their units.  Two are
# stored under another key there (ALIASES).
LAYER_METRICS = (
    ("lp.direction.self_s", "s"),
    ("lp.direction.rows_sum", "count"),
    ("lp.direction.vars_sum", "count"),
    ("lp.certificate.self_s", "s"),
    ("lp.certificate.rows_sum", "count"),
    ("lp.certificate.vars_sum", "count"),
    ("lp.cell.self_s", "s"),
    ("lp.cell.rows_sum", "count"),
    ("lp.solve_lp.calls", "count"),
    ("lp.solve_lp.self_s", "s"),
    ("lp.solve_lp.errors", "count"),
    ("woa.improving_direction.calls", "count"),
    ("woa.improving_direction.incl_s", "s"),
    ("woa.improving_direction.found", "count"),
    ("woa.cell_lp.calls", "count"),
    ("woa.cell_lp.incl_s", "s"),
    ("woa.breakpoints.self_s", "s"),
    ("woa.breakpoints.entries_sum", "count"),
    ("woa.line_search.incl_s", "s"),
    ("loss.residuals.calls", "count"),
    ("loss.residuals.self_s", "s"),
    ("loss.eval_loss.calls", "count"),
    ("loss.eval_loss.self_s", "s"),
    ("loss.active_pairs.self_s", "s"),
    ("loss.active_pairs.pairs_sum", "count"),
    ("loss.consistent_permutation.self_s", "s"),
    ("certificate.solve_certificate.incl_s", "s"),
    ("certificate.birkhoff_decompose.self_s", "s"),
    ("certificate.birkhoff_decompose.terms_sum", "count"),
    ("certificate.verify_certificate.self_s", "s"),
    ("ggd.cell_gradient.self_s", "s"),
    ("model.make_scores.s", "s"),
)
ALIASES = {
    "woa.improving_direction.found": "woa.improving_direction.found_sum",
    "model.make_scores.s": "model.make_scores.incl_s",
}


@dataclasses.dataclass
class Fit:
    case: cases.Case
    seconds: float
    out: object = None
    error: str | None = None
    layers: tuple[str, ...] = ()  # spans open when the error escaped, outermost first
    problems: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def fit_case(wl: cases.Workload, case: cases.Case) -> Fit:
    solver = getattr(rankwalk, wl.solver)  # looked up per call, so a traced run sees the wrapper
    t0 = time.perf_counter()
    try:
        out = solver(case.data, case.alpha)
    except Exception as exc:
        seconds = time.perf_counter() - t0
        return Fit(case, seconds, error=f"{type(exc).__name__}: {exc}",
                   layers=tuple(spans.open_layers(exc.__traceback__)))
    return Fit(case, time.perf_counter() - t0, out)


def fit_round(wl, batch, tracer=None) -> tuple[list[Fit], float]:
    fits = []
    t0 = time.perf_counter()
    for case in batch:
        if tracer is not None:
            tracer.fit_id = case.index
        fits.append(fit_case(wl, case))
    return fits, time.perf_counter() - t0


def run_timed(wl, seed: int, seconds: float) -> tuple[list[Fit], float, float]:
    """Whole rounds, as many as ``cases.rounds`` gives for ``seconds``.
    Returns the fits, their total time and the peak RSS after round 0: all
    outputs are kept for checking, so a later reading would grow with the
    number of rounds."""
    fits, spent, rss = [], 0.0, 0.0
    for rnd in range(cases.rounds(wl, seconds)):
        for case in cases.build_round(wl, seed, rnd):
            fits.append(fit_case(wl, case))
            spent += fits[-1].seconds
        if rnd == 0:
            rss = peak_rss_mb()
    return fits, spent, rss


def grid_seconds(fits: list[Fit], grid_len: int) -> float:
    """Seconds to fit each grid entry once: the mean time of a round."""
    return sum(f.seconds for f in fits) * grid_len / len(fits)


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def check_fits(fits: list[Fit]):
    import checks  # imports scipy; only after the timed fits and the RSS reading

    for fit in fits:
        if fit.out is not None:
            fit.problems = tuple(checks.check_fit(fit.case, fit.out, checks.reference_value(fit.case.kind, fit.case.data)))


def same(a, b) -> bool:
    """Bit-identical outputs: equal types, array bytes and float reprs."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return isinstance(b, float) and repr(a) == repr(b)
    return type(a) is type(b) and a == b


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "src_lines": src_lines,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def failure_records(fits: list[Fit]) -> list[dict]:
    return [{"case": f.case.label, "seconds": f.seconds, "error": f.error, "layers": list(f.layers),
             "problems": list(f.problems)} for f in fits if f.failed]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(wl, seed: int, seconds: float) -> tuple[list[Fit], dict, dict]:
    setup = measure_setup(wl.name, seed)
    fits, spent, rss = run_timed(wl, seed, seconds)
    check_fits(fits)
    secs = [f.seconds for f in fits]
    metrics = {
        "wall_s": metric(grid_seconds(fits, len(wl.grid)), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    report = {
        "fits": len(fits), "rounds": len(fits) / len(wl.grid), "fit_seconds_total": spent,
        "setup_samples_s": setup, "fit_s_p50": statistics.median(secs), "fit_s_max": max(secs),
        "fail_frac": sum(f.failed for f in fits) / len(fits),
        "round0_failed": sum(f.failed for f in fits[:len(wl.grid)]),
    }
    return fits, metrics, report


def traced_run(wl, seed: int, seconds: float) -> tuple[list[Fit], dict, dict]:
    untraced, untraced_s = fit_round(wl, cases.build_round(wl, seed, 0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        batch = cases.build_round(wl, seed, 0)  # traced, for model.make_scores
        build_spans = list(tracer.spans)
        repeats, totals = [], []
        while not repeats or untraced_s + sum(totals) + statistics.mean(totals) <= seconds:
            start = len(tracer.spans)
            fits, spent = fit_round(wl, batch, tracer)
            repeats.append((fits, spans.layer_totals(tracer.spans[start:])))
            totals.append(spent)
            if len(repeats) > 1:
                del tracer.spans[start:]  # only the build and the first traced round are kept
    finally:
        tracer.uninstall()
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{wl.name}-seed{seed}.jsonl")

    check_fits(untraced)
    traced = repeats[0][0]
    mismatched = [u.case.label for u, t in zip(untraced, traced)
                  if not (same(u.out, t.out) and u.error == t.error)]

    times = spans.median_totals([tot for _, tot in repeats])
    counts = repeats[0][1]
    build = spans.layer_totals(build_spans)
    metrics = {}
    for name, unit in LAYER_METRICS:
        source = build if name.startswith("model.") else (times if unit == "s" else counts)
        metrics[name] = metric(float(source.get(ALIASES.get(name, name), 0.0)), unit)
    searches = counts.get("woa.line_search.calls", 0.0)
    metrics["woa.line_search.evals_per_search"] = metric(
        counts.get("woa.line_search.evals", 0.0) / searches if searches else 0.0, "count")
    ggd_out = [f.out for f in traced if isinstance(f.out, rankwalk.GgdResult)]
    iterations = sum(o.trace.n_iterations for o in ggd_out)
    metrics["ggd.iterations_sum"] = metric(float(iterations), "count")
    metrics["ggd.accepted_frac"] = metric(
        sum(len(o.trace.points) - 1 for o in ggd_out) / iterations if iterations else 0.0, "ratio")
    metrics["ggd.perturbations_sum"] = metric(float(sum(o.trace.n_perturbations for o in ggd_out)), "count")
    traced_s = statistics.median(totals)
    metrics["trace.overhead_frac"] = metric(traced_s / untraced_s - 1.0, "ratio")

    split_keys = [k for k in times if k.endswith(".self_s") and not k.startswith("lp.solve_lp")]
    report = {
        "repeats": len(repeats), "untraced_round_s": untraced_s, "traced_round_s": totals,
        "spans": len(tracer.spans),
        "split": {k[:-len(".self_s")]: round(times[k] / traced_s, 4) for k in sorted(split_keys, key=lambda k: -times[k])},
        "not_bit_identical": mismatched,
    }
    return untraced, metrics, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = cases.WORKLOADS[args.workload]

    fit_case(wl, cases.warm_up_case(wl, args.seed))  # untimed

    runner = traced_run if args.trace else untraced_run
    fits, metrics, report = runner(wl, args.seed, args.seconds)
    wrong = [f.case.label for f in fits if f.problems]
    correct = not wrong and not report.get("not_bit_identical")
    report.update(workload=wl.name, seed=args.seed, trace=args.trace, why=wl.why,
                  failures=failure_records(fits), environment=environment())
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": len(fits), "failed": sum(f.failed for f in fits),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
