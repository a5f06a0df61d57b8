"""Optimality certificates for the sorted-weight loss.

A point is optimal exactly when a bistochastic matrix G exists that is
supported on the realizable (rank, observation) pairs at that point and whose
weight-mixed column aggregate balances the design rows to zero.  Such a G
splits into a convex combination of permutation matrices, each of which must
itself be realizable at the point, and the combination reproduces the loss
value from the responses alone.

One cutting-plane search over the tie blocks decides optimality: it returns
either a direction of strict descent or that convex combination, the cuts
of its master LP (p + 1 columns, one cut per round, each one whole
ordering) weighted by their multipliers.  The certificate is those terms,
weights and a T x n array of orderings; G is summed from them only when
read.  ``minimize`` and ``verify_certificate`` check the terms with
one function, ``_conditions``, in O(T n (log n + p)) for T of them and
without G.  A certificate given as G and a decomposition is turned into its
terms when it is built, which records how far they are from recomposing G.
``minimize`` also hands the search its cell LP's dual, which it reads first:
on a tie block of two ranks the Birkhoff polytope is the segment between
the pair's two orders, so when the dual weighs only such pairs, none
adjacent and none beyond its score gap, the dual already is the certificate
and no master LP is posed.  When exactly one weighted pair is beyond its
gap, the dual names an edge along which that pair parts and the others stay
tied; it is returned when it passes the master's own descent test, and no
master is posed either.  The master runs only where the dual is neither.
``birkhoff_decompose`` splits any bistochastic matrix given from outside;
the walk does not need it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .loss import ActivePairs, Residuals, _are_orderings, _residuals_at, active_pairs
from .lp import LP_TOL, LpNumericError, LpOptimal, _basic_rows_point, _solve_by_dual
from .model import RegressionData, ScoreVector, sorted_scores

SUPPORT_TOL = 1e-9  # entries of G at or below this are outside its support


@dataclass(frozen=True, eq=False, init=False, repr=False)
class OptimalityCertificate:
    """The certificate as its terms: read-only ``weights`` (T floats) and
    ``orders`` (T x n integers), term t placing observation
    ``orders[t, r]`` at rank r with weight ``weights[t]``.

    ``G``, the sum of w P over the terms in order, and ``decomposition``,
    the terms as ``(weight, ordering)`` pairs, are built when first read,
    so nothing of size n x n is made for a caller that never reads G.
    ``OptimalityCertificate(G, decomposition)`` is the one place a G enters:
    the decomposition becomes the terms, G is kept only so that ``.G`` reads
    it back, and ``recomposition_dev``, the largest entry of the terms' sum
    minus G, is the one thing of G that verification reads (0 for the
    walk's certificates, which are built from their terms by
    ``_of_terms``).  Certificates compare by identity."""

    weights: np.ndarray
    orders: np.ndarray
    recomposition_dev: float

    def __init__(self, G, decomposition):
        """Raises ValueError when G is not numeric or the orderings are not
        integer sequences of one length."""
        G = np.array(G, dtype=float)
        G.setflags(write=False)
        terms = [(float(w), tuple(pi)) for w, pi in decomposition]
        if len({len(pi) for _, pi in terms}) > 1:
            raise ValueError("the orderings of a decomposition differ in length")
        orders = np.array([pi for _, pi in terms]) if terms else np.empty((0, G.shape[0] if G.ndim else 0), np.intp)
        if orders.dtype.kind not in "iu":
            raise ValueError(f"orderings must be integer, got {orders.dtype}")
        weights = np.array([w for w, _ in terms])
        orders = orders.astype(np.intp)
        n = orders.shape[1]
        perms = weights.size and G.shape == (n, n) and _are_orderings(orders, (weights.size, n))
        self._set(weights, orders, float(np.abs(_recompose(weights, orders) - G).max()) if perms else np.inf)
        vars(self)["G"] = G

    @classmethod
    def _of_terms(cls, weights: np.ndarray, orders: np.ndarray) -> "OptimalityCertificate":
        """The certificate of these terms, which it makes read-only."""
        cert = cls.__new__(cls)
        cert._set(weights, orders, 0.0)
        return cert

    def _set(self, weights, orders, recomposition_dev):
        weights.setflags(write=False)
        orders.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "recomposition_dev", recomposition_dev)

    @cached_property
    def G(self) -> np.ndarray:
        return _recompose(self.weights, self.orders)

    @cached_property
    def decomposition(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        return tuple(zip(self.weights.tolist(), map(tuple, self.orders.tolist())))

    def __repr__(self):
        return f"OptimalityCertificate(<{self.weights.size} weighted orderings of {self.orders.shape[-1]}>)"


def _recompose(weights: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """G = sum_t w_t P_t, read-only, added in term order."""
    n = orders.shape[1]
    G = np.zeros((n, n))
    ranks = np.arange(n)
    for w, pi in zip(weights, orders):
        G[ranks, pi] += w
    G.setflags(write=False)
    return G


@dataclass(frozen=True)
class CertificateReport:
    """Per-condition verification outcome."""

    ok: bool
    conditions: tuple[tuple[str, bool, str], ...]
    certified_value: float | None

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, good, _ in self.conditions if not good)


def _descent_search(data: RegressionData, a: ScoreVector, ap: ActivePairs, R: np.ndarray | None = None,
                    dual: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray | OptimalityCertificate:
    """Decide whether the loss descends from the point of ``ap``: a direction
    ell with D(ell) < 0, or the certificate that none exists.

    D(ell) = -lin . ell + sum_B max_s -g_s . ell is the directional
    derivative.  A rank alone in its tie block can hold only that block's
    observation, so those ranks fold into the constant lin, the sum of
    alpha[rank] x[observation] over them; B runs over the other blocks, s
    is an ordering of B's observations on B's ranks and
    g_s = sum_k alpha[B.lo + k] x[s(k)].  An ordering S of every block at
    once has g_S = sum_B g_s, so with g_0 that of index order in every block,
    D(ell) = -(lin + g_0) . ell + t where t = max_S (g_0 - g_S) . ell >= 0.

    Kelley's cutting planes minimize D, one cut per round: the master LP
    minimizes -(lin + g_0) . ell + t over |R ell|_inf <= 1 (R from the QR
    factorization of x, since D depends on ell only through x ell) with one
    cut t + (g_S - g_0) . ell >= -eps_c per distinct S met so far, starting
    from index order (t >= -eps_0) and every block reversed.  It has p + 1
    columns however many blocks there are, and is posed as A z <= b, the
    cuts negated and the box as [R; -R] ell <= 1, to ``lp._solve_by_dual``:
    its dual has p + 1 rows and one column per cut or box row.  The
    threshold is ``lp.LP_TOL`` times one plus the sizes of lin and of each
    block's scores and rows.  Measuring t from g_0, and relaxing cut c by
    a distinct eps_c = threshold / (c + 2),
    keep the vertices non-degenerate (the dual prices every cut column
    differently): with every cut through the origin, the free-variable
    simplex that solved the master before (now the tests' reference,
    ``tests/reference_simplex.py``) stalled there under Dantzig's rule and
    returned multipliers of the wrong sign.  The most violated S lists each
    block's observations by x_j . ell descending (rearrangement inequality)
    and is added while its excess exceeds t by more than the threshold.
    Then either D(ell) < -threshold and ell, the steepest descent in that
    norm, is returned, or the cuts with a positive multiplier are the
    certificate, already decomposed: each is one whole ordering, and the
    multipliers, the dual's y on the cut rows, sum to 1 (A^T y = -c on t's
    column) and balance lin (the relaxation leaves both as they are).

    ``R`` may be given by a caller that searches the same data more than
    once (``minimize`` factors x once per fit); it is computed here
    otherwise.

    ``dual`` is the ordering a cell LP posed and that LP's dual y, which
    ``minimize`` passes; it is read first (``_dual_read``).  On a tie block
    of two ranks the Birkhoff polytope is the segment between the pair's two
    orders, so when y weighs only pairs of tied ranks, none adjacent and
    each within its score gap, y is the certificate and no master is posed.
    When exactly one pair is beyond its gap, y names an edge, returned when
    D(edge) < -threshold with the excess computed as in the master's rounds
    from the same block arrays.  Any other dual, and an edge that fails that
    test, falls through to the master.
    """
    x, p, order = data.x, data.p, ap.order
    if R is None:
        R = np.linalg.qr(x, mode="r")
    read = None if dual is None else _dual_read(x, R, a, ap, *dual)
    if isinstance(read, OptimalityCertificate):
        return read
    tied = np.bincount(ap.label)[ap.label] > 1
    pos = np.flatnonzero(tied)  # the ranks of the blocks, block by block
    block = ap.label[pos]
    obs = order[pos][np.lexsort((order[pos], block))]  # each block's observations in index order
    al, xo = a.alpha[pos], x[obs]
    lin = a.alpha[~tied] @ x[order[~tied]]
    g0 = al @ xo
    first = np.ones(block.size, dtype=bool)  # where each block begins in pos
    first[1:] = block[1:] != block[:-1]
    starts = np.flatnonzero(first)
    thr = LP_TOL * (1.0 + float(np.abs(lin).sum()) + float(
        np.add.reduceat(np.abs(al), starts) @ np.maximum.reduceat(np.abs(xo).sum(axis=1), starts)))
    slope0 = -(lin + g0)

    def steepest(ell):
        """The blocks' most violated ordering at ell and its excess (g_0 - g_S) . ell."""
        new = obs[np.lexsort((-(xo @ ell), block))]
        return new, float((g0 - al @ x[new]) @ ell)

    if read is not None and float(slope0 @ read) + steepest(read)[1] < -thr:
        return read
    r = R.shape[0]
    box = np.zeros((2 * r, p + 1))
    box[:r, :p] = R
    box[r:, :p] = -R
    objective = np.append(slope0, 1.0)
    rows, rhs, orders, seen = [], [], [], set()

    def add_cut(new) -> bool:
        """Add the cut of the blocks' observations in the order ``new``, with its whole ordering."""
        row = np.full(p + 1, -1.0)
        row[:p] = g0 - al @ x[new]
        key = row.tobytes()
        if key in seen:  # orderings of equal rows of x give equal cuts
            return False
        seen.add(key)
        whole = order.copy()
        whole[pos] = new
        orders.append(whole)
        rows.append(row)
        rhs.append(thr / (len(rhs) + 2))
        return True

    add_cut(obs)
    add_cut(obs[np.lexsort((-np.arange(obs.size), block))])
    while True:
        out = _solve_by_dual(objective, np.vstack(rows + [box]), np.array(rhs + [1.0] * (2 * r)))
        if not isinstance(out, LpOptimal):
            raise LpNumericError(f"descent master returned {type(out).__name__}, expected an optimum")
        ell, t = out.point[:p], float(out.point[p])
        new, excess = steepest(ell)
        if not (excess > t + thr and add_cut(new)):
            break

    if float(slope0 @ ell) + excess < -thr:
        return ell
    weight = np.maximum(out.dual[:len(orders)], 0.0)
    on = np.flatnonzero(weight > 0.0)
    if on.size == 0:
        raise LpNumericError("no cut of the descent master carries weight")
    return OptimalityCertificate._of_terms(weight[on] / weight[on].sum(), np.array(orders)[on])


def _dual_read(x: np.ndarray, R: np.ndarray, a: ScoreVector, ap: ActivePairs, posed: np.ndarray,
               y: np.ndarray) -> OptimalityCertificate | np.ndarray | None:
    """What the cell LP's dual ``y`` at the ordering ``posed`` already is:
    the certificate, an edge to descend along, or None when it is neither.

    The dual reads A^T y = g(posed), row r of A being
    x[posed[r + 1]] - x[posed[r]].  Swapping ranks r and r + 1 changes g by
    -(alpha[r + 1] - alpha[r]) A_r, so the posed ordering with each weighted
    pair swapped with weight w_r = y_r / (alpha[r + 1] - alpha[r]) mixes to
    g(posed) - A^T y = 0.  On a tie block of two ranks the Birkhoff polytope
    is the segment between the pair's two orders, so this is a certificate
    when every w_r <= 1, every row with y_r > 0 joins two ranks of one tie
    block, no two such rows are adjacent (the swaps are then independent)
    and the posed ordering is realizable at the point.  All four are tested
    exactly.

    When the last three hold and exactly one weighted row r has w_r > 1, y
    names an edge instead, as the simplex method reads one from its reduced
    costs: ell with A_r ell = 1 and A_w ell = 0 on the other weighted rows
    keeps their pairs tied and pulls pair r apart, and F falls along it at
    rate y_r - (alpha[r + 1] - alpha[r]) in either order of the pair.  It
    is returned scaled to the master's box, |R ell|_inf = 1, for the caller
    to test as the master tests its own ell, since pairs y does not weigh
    may still turn along it.

    The swaps draw on common breakpoints of [0, 1]: pair r keeps the posed
    order on the weights up to 1 - w_r and is swapped above it, so there is
    one term per distinct 1 - w_r."""
    on = np.flatnonzero(y > 0.0)
    gap = a.alpha[on + 1] - a.alpha[on]
    if not ((ap.label[on] == ap.label[on + 1]).all() and (on[1:] - on[:-1] > 1).all()
            and (ap.block_of[posed] == ap.label).all()):
        return None
    over = y[on] > gap
    if over.any():
        return _edge(x, R, posed, on, over) if np.count_nonzero(over) == 1 else None
    flip = 1.0 - y[on] / gap
    ends = np.sort(np.append(flip, 1.0))
    ends = ends[ends > 0.0]
    ends = ends[np.concatenate(([True], ends[1:] != ends[:-1]))]  # np.unique would import numpy.ma
    starts = np.concatenate([[0.0], ends[:-1]])
    swapped = flip < ((starts + ends) / 2.0)[:, None]  # term by pair
    pis = np.empty((ends.size, posed.size), dtype=np.intp)
    pis[:] = posed
    pis[:, on] = np.where(swapped, posed[on + 1], posed[on])
    pis[:, on + 1] = np.where(swapped, posed[on], posed[on + 1])
    return OptimalityCertificate._of_terms(ends - starts, pis)


def _edge(x: np.ndarray, R: np.ndarray, posed: np.ndarray, on: np.ndarray, over: np.ndarray) -> np.ndarray | None:
    """The ell of ``_dual_read``'s edge, solved over the weighted rows ``on``
    (least squares where they are fewer than p or singular), its one row
    ``over`` set to 1, then scaled to |R ell|_inf = 1; None where that norm
    is not positive and finite, as on a zero row of A (two equal rows of x)."""
    ell = _basic_rows_point(x[posed[on + 1]] - x[posed[on]], over.astype(float), slice(None))
    size = float(np.abs(R @ ell).max())
    return ell / size if 0.0 < size < np.inf else None


def solve_certificate(data: RegressionData, alpha, ap: ActivePairs) -> OptimalityCertificate | None:
    """The optimality certificate at the point of ``ap``, already decomposed
    into weighted orderings realizable there, or None when the loss still
    descends from it.  Weights are sorted on entry."""
    found = _descent_search(data, sorted_scores(alpha, data.n), ap)
    return found if isinstance(found, OptimalityCertificate) else None


def _perfect_matching(edges: list[list[int]], n: int) -> list[int] | None:
    """Row -> column assignment covering every row, by augmenting paths from a
    depth-first search that keeps its own stack, since a path may be n long."""
    owner = [-1] * n  # column -> matched row

    def augment(root: int) -> bool:
        seen = [False] * n
        stack, path = [(root, iter(edges[root]))], []  # path[k]: the column row stack[k] tries
        while stack:
            for j in stack[-1][1]:
                if not seen[j]:
                    seen[j] = True
                    break
            else:
                stack.pop()
                del path[-1:]
                continue
            path.append(j)
            if owner[j] < 0:
                for (r, _), col in zip(stack, path):
                    owner[col] = r
                return True
            stack.append((owner[j], iter(edges[owner[j]])))
        return False

    for r in range(n):
        if not augment(r):
            return None
    pi = [-1] * n
    for j, r in enumerate(owner):
        pi[r] = j
    return pi


def birkhoff_decompose(G) -> list[tuple[float, tuple[int, ...]]]:
    """Split a bistochastic matrix into weighted permutations.

    Repeatedly matches the positive support perfectly, peels off the smallest
    matched entry, and stops once the residual is dust.  A missing matching
    while real mass remains means the input was not bistochastic.
    """
    R = np.array(G, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {R.shape}")
    n = R.shape[0]
    dev = max(
        float(np.abs(R.sum(axis=0) - 1.0).max()),
        float(np.abs(R.sum(axis=1) - 1.0).max()),
        float(max(0.0, -R.min())),
    )
    if dev > 1e-7:
        raise ValueError(f"input is not bistochastic within 1e-7 (deviation {dev:.3g})")
    np.clip(R, 0.0, None, out=R)
    coarse = max(SUPPORT_TOL, 2e-7 * n)
    terms: list[tuple[float, tuple[int, ...]]] = []
    for _ in range(n * n + 2):
        top = float(R.max())
        if top <= SUPPORT_TOL:
            break
        rows, cols = np.nonzero(R > SUPPORT_TOL)
        edges = [[] for _ in range(n)]
        for i, j in zip(rows.tolist(), cols.tolist()):
            edges[i].append(j)
        pi = _perfect_matching(edges, n)
        if pi is None:
            if top <= coarse:
                break
            raise ValueError("support admits no perfect matching; input is not bistochastic")
        at = (np.arange(n), np.array(pi))
        lam = float(R[at].min())
        terms.append((lam, tuple(pi)))
        rest = R[at] - lam
        R[at] = np.where(rest < 1e-12, 0.0, rest)
    else:
        raise ValueError("decomposition failed to terminate")
    return terms


def _conditions(data: RegressionData, a: ScoreVector, res: Residuals, ap: ActivePairs,
                cert: OptimalityCertificate) -> tuple[tuple[tuple[str, bool, str], ...], float | None]:
    """Every condition of ``cert`` at the point of ``res``, whose tie blocks
    are ``ap``, as (name, ok, detail), and the value it certifies (None when
    no decomposition is usable); never raises on a bad certificate.

    The certificate is read from its weights w and T x n orderings.  Unless
    they are T permutations (``shape``) nothing else is checked.  Then
    ``balance`` mixes the scores by the terms, ``decomposition`` asks for
    positive weights summing to 1 and for ``recomposition_dev`` (0 unless
    the certificate was built from a G given from outside) within 1e-9,
    ``decomposition_support`` for every term inside the tie blocks, and
    ``value`` for the terms' price to be the loss here."""
    n = data.n
    weights, orders = cert.weights, cert.orders
    if not (weights.ndim == 1 and _are_orderings(orders, (weights.size, n))):
        return (("shape", False, f"orderings of shape {orders.shape}, expected {weights.size} permutations "
                                 f"of {n}"),), None
    realizable = not (ap.block_of[orders] != ap.label).any()
    mixed = np.bincount(orders.ravel(), (weights[:, None] * a.alpha).ravel(), n)  # alpha G, in term order
    weights = weights.tolist()
    lam_sum = sum(weights)
    recomp_dev = cert.recomposition_dev
    balance = float(np.abs(mixed @ data.x).max())
    whole = bool(weights) and min(weights) > 0.0 and abs(lam_sum - 1.0) <= 1e-9 and recomp_dev <= 1e-9
    certified = None
    if weights and realizable:
        certified = float(sum([w * float(a.alpha @ data.y[pi]) for w, pi in zip(weights, orders)]))
        f_here = float(np.sort(res.e) @ a.alpha)  # eval_loss at beta, from the residuals already at hand
        value = ("value", abs(certified - f_here) <= 1e-7 * (1.0 + abs(f_here)),
                 f"certified {certified:.12g} vs loss {f_here:.12g}")
    else:
        value = ("value", False, "no usable decomposition to price")
    conditions = (
        ("balance", balance <= 1e-7, f"largest design-row imbalance {balance:.3g}"),
        ("decomposition", whole, f"weight sum {lam_sum:.12g}, recomposition dev {recomp_dev:.3g}"),
        ("decomposition_support", realizable,
         "every ordering realizable at beta" if realizable else "an ordering uses a non-realizable pair"),
        value,
    )
    return conditions, certified


def verify_certificate(data: RegressionData, alpha, beta, cert: OptimalityCertificate,
                       tie_tol: float | None = None) -> CertificateReport:
    """Check every certificate condition at ``beta``; never raises on a bad
    certificate, reporting each condition separately instead.  Weights are
    sorted on entry, as ``minimize`` sorts them; ``beta`` is checked as
    ``loss._residuals_at`` checks a point.

    The certificate is checked from its T weighted orderings, in
    O(T n (log n + p)) time and O(T n) memory."""
    res = _residuals_at(data, beta, "beta")
    ap = active_pairs(res, tie_tol)
    conditions, certified = _conditions(data, sorted_scores(alpha, data.n), res, ap, cert)
    return CertificateReport(all(good for _, good, _ in conditions), conditions, certified)
