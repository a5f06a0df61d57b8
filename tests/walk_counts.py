"""Counting spies on the walk, for the fits that CI runs as scripts.

``count_walk()`` wraps three layers of the package and returns the dict of
counts that they update from then on:

- ``masters``: descent master LPs (``certificate._solve_by_dual``).  None
  runs where the cell LP's dual certifies the point or names an edge.
- ``edges``: descent searches that end in an edge read from the cell LP's
  dual, with no master solve and no certificate.
- ``warm``: cell LPs that the rows tied at their point (after a step, the
  rows where the ray landed) solved without the simplex
  (``lp._from_rows``).
- ``blocks``: the number of tie blocks K, blocks of more than one rank, at
  each descent search, read from ``ActivePairs.label``.

A caller may reset a count between fits; the spies read the dict each time.
"""

import numpy as np

import rankwalk
import rankwalk.certificate
import rankwalk.lp
import rankwalk.woa


def count_walk() -> dict:
    counts = dict(masters=0, edges=0, warm=0, blocks=[])
    solve_by_dual, descent_search = rankwalk.certificate._solve_by_dual, rankwalk.woa._descent_search
    from_rows = rankwalk.lp._from_rows

    def counted(*args):
        counts["masters"] += 1
        return solve_by_dual(*args)

    def searched(data, a, ap, *args):
        counts["blocks"].append(int(np.count_nonzero(np.bincount(ap.label) > 1)))
        before = counts["masters"]
        found = descent_search(data, a, ap, *args)
        counts["edges"] += counts["masters"] == before and not isinstance(found, rankwalk.OptimalityCertificate)
        return found

    def started(*args):
        out = from_rows(*args)
        counts["warm"] += out is not None
        return out

    rankwalk.certificate._solve_by_dual = counted
    rankwalk.woa._descent_search = searched
    rankwalk.lp._from_rows = started
    return counts
