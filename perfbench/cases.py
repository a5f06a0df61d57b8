"""Workloads of the benchmark: seeded instance generators and case grids.

A round is one pass over a workload's grid.  Case ``k`` of round ``r`` is
case index ``r * len(grid) + k``, and its instance is drawn from
``default_rng(seed + index)``, so round 0 is the grid itself and later rounds
fit fresh instances of the same shapes.

This module is also the body of the set-up probe (see ``run.py``), so it
imports only numpy and rankwalk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import rankwalk

KINDS = ("sign", "wilcoxon", "van_der_waerden")


def continuous(seed: int, n: int, p: int) -> rankwalk.RegressionData:
    """Reference instance: x = [1, N(0,1)^(p-1)], y = x @ N(0,1)^p + t_2 noise."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    y = x @ rng.standard_normal(p) + rng.standard_t(2, n)
    return rankwalk.RegressionData(x, y)


def integer_grid(seed: int, n: int, p: int) -> rankwalk.RegressionData:
    """Exact ties: x = [1, U{-2..2}^(p-1)], y in U{-2..2}."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.integers(-2, 3, (n, p - 1))]).astype(float)
    y = rng.integers(-2, 3, n).astype(float)
    return rankwalk.RegressionData(x, y)


Generator = Callable[[int, int, int], rankwalk.RegressionData]


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str  # name of the public rankwalk function each case is fitted with
    grid: tuple[tuple[Generator, str, int, int], ...]  # (generator, score kind, n, p)
    why: str
    round_s: float = 1.0  # nominal seconds per round, which fixes the rounds of a run (see ``rounds``)


@dataclass(frozen=True)
class Case:
    index: int
    kind: str
    n: int
    p: int
    data: rankwalk.RegressionData
    alpha: rankwalk.ScoreVector

    @property
    def label(self) -> str:
        return f"{self.kind}/n={self.n}/p={self.p}/#{self.index}"


# Fit times vary several-fold between instances of one shape, and runs made
# with different seeds must agree, so a run fits many small instances.  The
# timed workloads must also fit every case without an error whatever the
# seed, because a failure count that changes with the seed cannot agree
# between runs.  Today the direction LP fails on some instances at p >= 3
# ("phase 1 reported unbounded") and on exact ties at n >= 18 ("pivot budget
# exhausted"), so "walk" keeps to p = 2 and ties at n = 12, where several
# thousand instances of each case fit without one.  "walk-hard" holds the
# failing shapes; BENCHMARK.json does not list it, but a run of it counts
# and names those failures:
#     python3 perfbench/run.py --workload walk-hard --seed 0 --seconds 20 --trace 0
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "walk", "minimize",
            tuple((continuous, k, n, 2) for k in KINDS for n in (40, 60, 80))
            + tuple((integer_grid, k, 12, 2) for k in KINDS),
            "the region walk: direction, cell and certificate LPs, on general-position data and on exact ties",
            round_s=1.3,
        ),
        Workload(
            "ggd-line", "ggd_minimize",
            ((continuous, "wilcoxon", 120, 2), (continuous, "van_der_waerden", 120, 2),
             (continuous, "sign", 30, 3), (continuous, "wilcoxon", 80, 3)),
            "gradient descent runs no LP: residuals, breakpoints and line search only",
            round_s=1.5,
        ),
        Workload(
            "walk-hard", "minimize",
            tuple((continuous, k, n, p) for k in KINDS for n, p in ((60, 3), (40, 4), (30, 6)))
            + tuple((integer_grid, k, 18, p) for k in KINDS for p in (2, 3)),
            "the shapes where the direction LP fails today: p = 3 to 6 and exact ties at n = 18",
            round_s=4.5,
        ),
    )
}


def rounds(wl: Workload, seconds: float) -> int:
    """Rounds a run of about ``seconds`` fits.  The count depends only on the
    arguments, never on the clock, so runs with the same seed fit the same
    cases and fail the same ones."""
    return max(1, round(seconds / wl.round_s))


def build_round(wl: Workload, seed: int, rnd: int) -> list[Case]:
    """Instances and weights of one round.  ``make_scores`` is looked up on
    the package at call time so that a traced run sees the call."""
    out = []
    for k, (generator, kind, n, p) in enumerate(wl.grid):
        index = rnd * len(wl.grid) + k
        out.append(Case(index, kind, n, p, generator(seed + index, n, p), rankwalk.make_scores(kind, n)))
    return out


def warm_up_case(wl: Workload, seed: int) -> Case:
    """A small instance of the first grid entry, fitted untimed before a run."""
    generator, kind, n, p = wl.grid[0]
    n = min(n, 20)
    return Case(-1, kind, n, p, generator(seed, n, p), rankwalk.make_scores(kind, n))
