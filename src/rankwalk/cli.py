"""Command line front end.

Data files are CSV with the exact header ``y,x1,...,xp`` followed by numeric
rows.  Exit codes: 0 for a certified minimizer (or a completed report), 2 when
the loss is unbounded below, 1 for any error.  ``fit --trace PATH`` writes
the walk's iterations as JSON; when the walk fails with a WalkError, the file
holds the iterations before the failure, the failing layer and the message.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from .certificate import verify_certificate
from .ggd import ggd_minimize
from .loss import _residuals_at, _sorted_loss, consistent_permutation
from .model import RegressionData, ScoreVector, _check_count, make_scores
from .oracle import ORACLE_LIMIT, oracle_minimize
from .woa import Minimizer, WalkError, minimize


class CliError(Exception):
    pass


def read_csv(path: str) -> RegressionData:
    """Parse a data file, reporting problems with their line number."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CliError(f"{path}: empty file") from None
        expected = ["y"] + [f"x{k}" for k in range(1, len(header))]
        if len(header) < 2 or header != expected:
            raise CliError(f"{path}: line 1: header must be y,x1,...,xp (got {','.join(header) or 'nothing'})")
        p = len(header) - 1
        ys: list[float] = []
        xs: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != p + 1:
                raise CliError(f"{path}: line {lineno}: expected {p + 1} fields, got {len(row)}")
            vals = []
            for name, cell in zip(header, row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise CliError(f"{path}: line {lineno}: bad number {cell.strip()!r} in column {name}") from None
                if not math.isfinite(vals[-1]):
                    raise CliError(f"{path}: line {lineno}: non-finite number {cell.strip()!r} in column {name}")
            ys.append(vals[0])
            xs.append(vals[1:])
        if not ys:
            raise CliError(f"{path}: no data rows")
    return RegressionData(np.array(xs), np.array(ys))


def build_scores(spec: str, n: int) -> ScoreVector:
    if spec == "sign" or spec == "wilcoxon":
        return make_scores(spec, n)
    if spec == "vdw":
        return make_scores("van_der_waerden", n)
    if spec.startswith("file="):
        path = spec[len("file="):]
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"{path}: {exc.strerror}") from None
        tokens = text.replace(",", " ").split()
        try:
            raw = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from None
        bad = next((tok for tok, w in zip(tokens, raw) if not math.isfinite(w)), None)
        if bad is not None:
            raise CliError(f"{path}: non-finite weight {bad!r}")
        if len(raw) != n:
            raise CliError(f"{path}: {len(raw)} weights for {n} observations")
        return ScoreVector(raw)
    raise CliError(f"unknown --scores value {spec!r} (use sign, wilcoxon, vdw, or file=PATH)")


def initial_point(spec: str, data: RegressionData, flag: str) -> np.ndarray | None:
    """The point ``spec`` names, parsed from the flag ``flag``, which a bad
    spec's error names."""
    if spec == "zero":
        return None
    if spec == "ls":
        return np.linalg.lstsq(data.x, data.y, rcond=None)[0]
    try:
        return np.array([float(tok) for tok in spec.split(",")])
    except ValueError:
        raise CliError(f"{flag} must be zero, ls, or a comma-separated vector (got {spec!r})") from None


def _floats(arr) -> list[float]:
    return [float(v) for v in arr]


def _one_based(pi) -> list[int]:
    return [int(i) + 1 for i in pi]


def _ray(outcome) -> dict:
    return {"point": _floats(outcome.point), "direction": _floats(outcome.ray)}


def trace_payload(outcome) -> dict:
    """The JSON of a walk's ``fit --trace`` file: its iterations, then its
    verdict, or for a WalkError its layer and message."""
    iterations = [
        {
            "pi": _one_based(rec.pi),
            "beta_star": _floats(rec.beta_star),
            "F_star": float(rec.f_star),
            "direction": _floats(rec.direction) if rec.direction is not None else None,
            "d_star": float(rec.d_star) if rec.d_star is not None else None,
        }
        for rec in outcome.trace
    ]
    if isinstance(outcome, WalkError):
        return {"iterations": iterations, "outcome": "error", "layer": outcome.layer, "message": str(outcome)}
    if isinstance(outcome, Minimizer):
        certificate = {
            "decomposition": [
                {"lambda": float(w), "pi": _one_based(pi)} for w, pi in outcome.certificate.decomposition
            ],
        }
        return {"iterations": iterations, "outcome": "minimizer",
                "beta_opt": _floats(outcome.beta_opt), "F_opt": float(outcome.f_opt),
                "certificate": certificate, "ray": None}
    return {"iterations": iterations, "outcome": "unbounded", "beta_opt": None, "F_opt": None,
            "certificate": None,
            "ray": _ray(outcome)}


def cmd_fit(args) -> int:
    data = read_csv(args.data)
    alpha = build_scores(args.scores, data.n)
    beta0 = initial_point(args.init, data, "--init")
    if args.max_iter is not None:  # refused as minimize refuses it, but before the trace file is truncated
        _check_count("max_iter", args.max_iter, 1)
    # The trace file is opened before the fit, so that a path it cannot
    # write is refused before the fit's time is spent.
    try:
        trace = open(args.trace, "w") if args.trace else contextlib.nullcontext()
    except OSError as exc:
        raise CliError(f"{args.trace}: {exc.strerror}") from None
    with trace as fh:
        try:
            outcome = minimize(data, alpha, beta0, max_iter=args.max_iter)
        except WalkError as exc:  # its iterations go to the trace file, then main reports it
            outcome = exc
        if fh is not None:
            json.dump(trace_payload(outcome), fh, indent=2)
            fh.write("\n")
    if isinstance(outcome, WalkError):
        raise outcome
    if isinstance(outcome, Minimizer):
        print(json.dumps({"outcome": "minimizer", "beta_opt": _floats(outcome.beta_opt),
                          "F_opt": float(outcome.f_opt)}))
        return 0
    print(json.dumps({"outcome": "unbounded", "ray": _ray(outcome)}))
    return 2


def cmd_eval(args) -> int:
    data = read_csv(args.data)
    alpha = build_scores(args.scores, data.n)
    res = _residuals_at(data, initial_point(args.beta, data, "--beta"), "--beta", origin=True)
    f = _sorted_loss(np.sort(res.e), alpha.alpha, "--beta")  # eval_loss at --beta, from the residuals at hand
    pi = consistent_permutation(res)
    print(json.dumps({"F": f, "pi": _one_based(pi)}))
    return 0


def cmd_check(args) -> int:
    data = read_csv(args.data)
    if data.n > ORACLE_LIMIT:
        raise CliError(f"check is exhaustive and refuses n > {ORACLE_LIMIT} (got {data.n})")
    alpha = build_scores(args.scores, data.n)
    outcome = minimize(data, alpha, initial_point(args.init, data, "--init"), max_iter=args.max_iter)
    reference = oracle_minimize(data, alpha)
    found = isinstance(outcome, Minimizer)
    report: dict = {
        "walk": {"outcome": "minimizer" if found else "unbounded",
                 "beta_opt": _floats(outcome.beta_opt) if found else None,
                 "F_opt": float(outcome.f_opt) if found else None, "iterations": len(outcome.trace)},
        "oracle": {"outcome": "unbounded" if reference.unbounded else "minimizer",
                   "value": None if reference.unbounded else float(reference.value)},
    }
    if found and not reference.unbounded:
        agree = abs(outcome.f_opt - reference.value) <= 1e-7 * (1.0 + abs(reference.value))
        check = verify_certificate(data, alpha, outcome.beta_opt, outcome.certificate)
        report["certificate"] = {"ok": check.ok,
                                 "conditions": {name: good for name, good, _ in check.conditions}}
        agree = agree and check.ok
    else:
        agree = found == (not reference.unbounded)
    report["agree"] = agree
    print(json.dumps(report))
    return 0 if agree else 1


def cmd_compare(args) -> int:
    data = read_csv(args.data)
    alpha = build_scores(args.scores, data.n)
    beta0 = initial_point(args.init, data, "--init")
    outcome = minimize(data, alpha, beta0, max_iter=args.max_iter)
    if not isinstance(outcome, Minimizer):
        print(json.dumps({"outcome": "unbounded", "ray": _ray(outcome)}))
        return 2
    baseline = ggd_minimize(data, alpha, beta0, perturbation=args.perturbation, seed=args.seed,
                            max_iter=args.max_iter or 1000)
    print(json.dumps({
        "outcome": "minimizer",
        "walk": {"iterations": len(outcome.trace), "F_opt": float(outcome.f_opt)},
        "ggd": {"iterations": baseline.trace.n_iterations, "F": float(baseline.f),
                "stop_reason": baseline.trace.stop_reason, "perturbations": baseline.trace.n_perturbations},
        "gap": float(baseline.f - outcome.f_opt),
    }))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("data", help="CSV file with header y,x1,...,xp")
    common.add_argument("--scores", default="wilcoxon",
                        help="sign | wilcoxon | vdw | file=PATH (raw weights, sorted on load)")

    solve = _Parser(add_help=False)
    solve.add_argument("--init", default="zero", help="zero | ls | comma-separated vector")
    solve.add_argument("--max-iter", type=int, default=None, help="iteration budget")

    parser = _Parser(prog="rankwalk", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", parents=[common, solve], help="minimize and certify")
    fit.add_argument("--trace", metavar="PATH", help="write the full walk trace as JSON")
    fit.set_defaults(func=cmd_fit)

    check = sub.add_parser("check", parents=[common, solve],
                           help=f"cross-check the walk against the exhaustive oracle (n <= {ORACLE_LIMIT})")
    check.set_defaults(func=cmd_check)

    compare = sub.add_parser("compare", parents=[common, solve],
                             help="race the walk against gradient descent from the same start")
    compare.add_argument("--seed", type=int, default=0, help="gradient-descent perturbation seed")
    compare.add_argument("--perturbation", choices=("random", "prolong"), default="random")
    compare.set_defaults(func=cmd_compare)

    ev = sub.add_parser("eval", parents=[common], help="evaluate the loss at a point")
    ev.add_argument("--beta", required=True, help="comma-separated coefficient vector")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError, WalkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
