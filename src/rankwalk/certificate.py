"""Optimality certificates for the sorted-weight loss.

A point is optimal exactly when a bistochastic matrix G exists that is
supported on the realizable (rank, observation) pairs at that point and whose
weight-mixed column aggregate balances the design rows to zero.  Such a G
splits into a convex combination of permutation matrices, each of which must
itself be realizable at the point, and the combination reproduces the loss
value from the responses alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import ActivePairs, active_pairs, default_tie_tol, eval_loss, fold_singletons, residuals
from .lp import find_feasible
from .model import RegressionData, as_score_vector


@dataclass(frozen=True)
class OptimalityCertificate:
    """Bistochastic witness plus its decomposition into orderings."""

    G: np.ndarray
    decomposition: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        G = np.array(self.G, dtype=float)
        G.setflags(write=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "decomposition", tuple((float(w), tuple(pi)) for w, pi in self.decomposition))


@dataclass(frozen=True)
class CertificateReport:
    """Per-condition verification outcome."""

    ok: bool
    conditions: tuple[tuple[str, bool, str], ...]
    certified_value: float | None

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, good, _ in self.conditions if not good)


def solve_certificate(data: RegressionData, alpha, ap: ActivePairs,
                      lp_tol: float = 1e-9) -> np.ndarray | None:
    """A bistochastic balance witness supported on ``ap``, or None when the
    system is infeasible (the point is then not optimal).

    Only the nontrivial tie blocks get variables: a singleton rank can only
    hold its own observation, so its entry of G is 1 and its balance
    contribution is the constant lin of ``fold_singletons``.  The LP has a
    column G_ij per pair inside a block, row and column sums of 1 within each
    block, the balance sum alpha_i G_ij x_j = -lin, and G >= 0.  The result is
    the full n x n matrix.
    """
    a = as_score_vector(alpha)
    n, p = data.n, data.p
    if a.n != n:
        raise ValueError(f"{a.n} weights for {n} observations")
    fold = fold_singletons(data, a, ap)
    pi, pj, pu, pv = fold.block_pairs()
    G = np.zeros((n, n))
    G[fold.ranks, fold.observations] = 1.0
    if not fold.blocks:
        # Nothing is free: the fixed pairing balances the design or it does
        # not, judged as the simplex judges an equality row.
        spread = np.abs(a.alpha[fold.ranks, None] * data.x[fold.observations]).sum(axis=0)
        return G if bool(np.all(np.abs(fold.lin) <= 10.0 * lp_tol * (1.0 + spread))) else None
    nv = pi.size
    rows = []
    for u in range(fold.width):
        rows.append(((pu == u).astype(float), "==", 1.0))
    for v in range(fold.width):
        rows.append(((pv == v).astype(float), "==", 1.0))
    mix = a.alpha[pi, None] * data.x[pj]
    for k in range(p):
        rows.append((mix[:, k], "==", -fold.lin[k]))
    for row in np.eye(nv):
        rows.append((row, ">=", 0.0))
    point = find_feasible(rows, nvars=nv, lp_tol=lp_tol)
    if point is None:
        return None
    G[pi, pj] = point
    return G


def _perfect_matching(edges: list[list[int]], n: int) -> list[int] | None:
    """Row -> column assignment covering every row, by augmenting paths."""
    owner = [-1] * n  # column -> matched row

    def augment(r: int, seen: list[bool]) -> bool:
        for j in edges[r]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = r
                    return True
        return False

    for r in range(n):
        if not augment(r, [False] * n):
            return None
    pi = [-1] * n
    for j, r in enumerate(owner):
        pi[r] = j
    return pi


def birkhoff_decompose(G, support_tol: float = 1e-9) -> list[tuple[float, tuple[int, ...]]]:
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
    coarse = max(support_tol, 2e-7 * n)
    terms: list[tuple[float, tuple[int, ...]]] = []
    for _ in range(n * n + 2):
        top = float(R.max())
        if top <= support_tol:
            break
        rows, cols = np.nonzero(R > support_tol)
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


def verify_certificate(data: RegressionData, alpha, beta, cert: OptimalityCertificate,
                       tie_tol: float | None = None) -> CertificateReport:
    """Check every certificate condition at ``beta``; never raises on a bad
    certificate, reporting each condition separately instead."""
    a = as_score_vector(alpha)
    n = data.n
    res = residuals(data, beta)
    tt = default_tie_tol(res) if tie_tol is None else tie_tol
    ap = active_pairs(res, tt)
    G = np.asarray(cert.G, dtype=float)
    conditions: list[tuple[str, bool, str]] = []

    if G.shape != (n, n):
        return CertificateReport(False, (("shape", False, f"G has shape {G.shape}, expected {(n, n)}"),), None)

    row_dev = float(np.abs(G.sum(axis=1) - 1.0).max())
    col_dev = float(np.abs(G.sum(axis=0) - 1.0).max())
    neg = float(max(0.0, -G.min()))
    ok = row_dev <= 1e-9 and col_dev <= 1e-9 and neg <= 1e-9
    conditions.append(("bistochastic", ok,
                       f"row dev {row_dev:.3g}, col dev {col_dev:.3g}, most negative {neg:.3g}"))

    rank_block = np.repeat(np.arange(len(ap.blocks)), [len(blk.observations) for blk in ap.blocks])
    support = rank_block[:, None] == np.array(ap.block_of)[None, :]
    off = float(np.fmax.reduce(np.abs(G[~support]), initial=0.0))  # NaN entries are skipped
    conditions.append(("support", off <= 1e-9, f"largest entry off the realizable pairs {off:.3g}"))

    mixed = a.alpha @ G  # column aggregate weighted by rank
    balance = float(np.abs(mixed @ data.x).max()) if data.p else 0.0
    conditions.append(("balance", balance <= 1e-7, f"largest design-row imbalance {balance:.3g}"))

    lam_sum = sum(w for w, _ in cert.decomposition)
    recomposed = np.zeros((n, n))
    positive = True
    consistent = True
    ranks = np.arange(n)
    for w, pi in cert.decomposition:
        if w <= 0.0:
            positive = False
        if len(pi) != n or sorted(pi) != list(range(n)):
            consistent = False
            continue
        recomposed[ranks, pi] += w
        consistent = consistent and bool(support[ranks, pi].all())
    recomp_dev = float(np.abs(recomposed - G).max()) if cert.decomposition else float("inf")
    ok = bool(cert.decomposition) and positive and abs(lam_sum - 1.0) <= 1e-9 and recomp_dev <= 1e-9
    conditions.append(("decomposition", ok,
                       f"weight sum {lam_sum:.12g}, recomposition dev {recomp_dev:.3g}"))
    conditions.append(("decomposition_support", consistent,
                       "every ordering realizable at beta" if consistent else "an ordering uses a non-realizable pair"))

    certified = None
    if cert.decomposition and consistent:
        certified = float(sum(w * float(a.alpha @ data.y[list(pi)]) for w, pi in cert.decomposition))
        f_here = eval_loss(data, a, beta)
        ok = abs(certified - f_here) <= 1e-7 * (1.0 + abs(f_here))
        conditions.append(("value", ok, f"certified {certified:.12g} vs loss {f_here:.12g}"))
    else:
        conditions.append(("value", False, "no usable decomposition to price"))

    return CertificateReport(all(good for _, good, _ in conditions), tuple(conditions), certified)
