"""Layer spans recorded from outside the package.

``Tracer.install`` replaces each public layer function with a wrapper, in the
module that defines it and in every module that imported it by name, so calls
between layers go through the wrappers too.  Each call becomes one span: name,
fit id, parent span, start, end and self time (its duration minus the time of
the spans it called), plus a few counts read from its argument or result.
Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import rankwalk  # noqa: F401  -- puts every rankwalk module in sys.modules

LAYERS = {
    "lp": ("solve_lp", "find_feasible"),
    "woa": ("minimize", "cell_lp", "improving_direction", "breakpoints", "line_search"),
    "loss": ("residuals", "eval_loss", "active_pairs", "consistent_permutation"),
    "certificate": ("solve_certificate", "birkhoff_decompose", "verify_certificate"),
    "ggd": ("ggd_minimize", "cell_gradient"),
    "model": ("make_scores",),
}

# A solve_lp span is attributed to the nearest enclosing span named here.
LP_CALLERS = {
    "woa.improving_direction": "direction",
    "woa.cell_lp": "cell",
    "certificate.solve_certificate": "certificate",
}


def _counts(name, args, result) -> dict | None:
    if name == "lp.solve_lp":
        prob = args[0]
        return {"rows": len(prob.constraints), "vars": len(prob.objective)}
    if name == "woa.improving_direction":
        return {"found": int(result is not None)}
    if name == "woa.breakpoints":
        return {"entries": len(result.entries)}
    if name == "loss.active_pairs":
        return {"pairs": len(result.pairs)}
    if name == "certificate.birkhoff_decompose":
        return {"terms": len(result)}
    return None


def _package_modules():
    return [m for key, m in sys.modules.items() if key == "rankwalk" or key.startswith("rankwalk.")]


class Tracer:
    """Records spans while installed; one tracer per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.fit_id: int | None = None
        self._stack: list[dict] = []
        self._rebound: list[tuple[object, str, object]] = []

    def install(self):
        modules = _package_modules()
        for layer, names in LAYERS.items():
            home = sys.modules[f"rankwalk.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebound.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1]["id"] if stack else None, "fit": self.fit_id,
                    "name": name, "child_s": 0.0, "error": None, "counts": None}
            spans.append(span)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span["start"], span["end"] = t0, t1
                span["self_s"] = (t1 - t0) - span.pop("child_s")
                if stack:
                    stack[-1]["child_s"] += t1 - t0
            span["counts"] = _counts(name, args, result)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _lp_group(span, by_id) -> str:
    parent = span["parent"]
    while parent is not None:
        up = by_id[parent]
        if up["name"] in LP_CALLERS:
            return LP_CALLERS[up["name"]]
        parent = up["parent"]
    return "other"


def layer_totals(spans) -> dict[str, float]:
    """Per-layer sums over a list of finished spans: calls, inclusive and
    self seconds, LP shapes per caller group, and the counts of each span."""
    by_id = {s["id"]: s for s in spans}
    tot: dict[str, float] = defaultdict(float)
    for s in spans:
        name, incl = s["name"], s["end"] - s["start"]
        tot[f"{name}.calls"] += 1
        tot[f"{name}.incl_s"] += incl
        tot[f"{name}.self_s"] += s["self_s"]
        for key, value in (s["counts"] or {}).items():
            tot[f"{name}.{key}_sum"] += value
        if name == "lp.solve_lp":
            group = _lp_group(s, by_id)
            tot[f"lp.{group}.self_s"] += s["self_s"]
            tot[f"lp.{group}.calls"] += 1
            if s["counts"]:
                tot[f"lp.{group}.rows_sum"] += s["counts"]["rows"]
                tot[f"lp.{group}.vars_sum"] += s["counts"]["vars"]
            if s["error"]:
                tot["lp.solve_lp.errors"] += 1
        if name == "loss.eval_loss" and s["parent"] is not None and by_id[s["parent"]]["name"] == "woa.line_search":
            tot["woa.line_search.evals"] += 1
    return tot


def median_totals(rounds: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*rounds)
    return {k: statistics.median(r.get(k, 0.0) for r in rounds) for k in keys}


def open_layers(tb) -> list[str]:
    """Public layer functions on a traceback, outermost first: the spans that
    were open when an exception escaped a fit."""
    codes = {}
    for layer, names in LAYERS.items():
        home = sys.modules[f"rankwalk.{layer}"]
        for fname in names:
            fn = getattr(home, fname)
            fn = getattr(fn, "__wrapped__", fn)
            codes[fn.__code__] = f"{layer}.{fname}"
    out = []
    while tb is not None:
        name = codes.get(tb.tb_frame.f_code)
        if name:
            out.append(name)
        tb = tb.tb_next
    return out
