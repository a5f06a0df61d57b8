"""The descent search's read of the cell LP's dual.

``minimize`` hands ``_descent_search`` the ordering its cell LP posed and
that LP's dual y, with A^T y = g(posed).  When the posed ordering is
realizable at the point, every row that y weighs joins two ranks of one
tie block and no two weighted rows are adjacent, y answers without a
master LP in two ways.  With every y_r <= alpha[r + 1] - alpha[r], the
posed ordering with each weighted pair swapped with weight
y_r / (alpha[r + 1] - alpha[r]) balances, and is the certificate.  With
exactly one row above its gap, y names an edge, which is taken when the
master's own test finds the loss falling along it.  The read must never
certify a point the master descends from nor descend from one the master
certifies, the walk must take the certificate on most ``walk`` fits, and
a dual that breaks any condition must reach the master's answer.
"""

import numpy as np
import pytest

import rankwalk
import rankwalk.certificate as certificate
from rankwalk import Minimizer, active_pairs, default_tie_tol, make_scores, minimize, residuals, verify_certificate
from rankwalk.certificate import OptimalityCertificate, _descent_search
from rankwalk.model import sorted_scores

from test_cell_lp_reference import bench_cases


def counting_masters(monkeypatch) -> list:
    """Record one entry per descent master LP solved from now on."""
    calls = []
    original = certificate._solve_by_dual

    def wrapped(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(certificate, "_solve_by_dual", wrapped)
    return calls


def fits():
    """(group, data, alpha) of ``walk`` rounds 0-3 and ``walk-hard`` rounds
    0-1 at seeds 0 and 1, then the 600 n = 8 fits of the oracle check."""
    cases = bench_cases()
    for workload, rounds in (("walk", 4), ("walk-hard", 2)):
        for seed in (0, 1):
            for rnd in range(rounds):
                for case in cases.build_round(cases.WORKLOADS[workload], seed, rnd):
                    yield workload, case.data, case.alpha
    for seed in range(25):
        for generator in (cases.continuous, cases.integer_grid):
            for p in range(1, 5):
                data = generator(seed, 8, p)
                for kind in cases.KINDS:
                    yield "oracle", data, make_scores(kind, 8)


@pytest.fixture(scope="module")
def walked():
    """Per fit: its group, whether the read certified its last point, and
    whether its certificate verifies; and per search the read answered, the
    kind of the answer and whether the master, posed without the dual,
    gives an answer of the same kind at the same point."""
    per_fit, answers = [], []
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_masters(mp)
        original = rankwalk.woa._descent_search
        certified = []

        def spy(data, a, ap, R=None, dual=None):
            before = len(calls)
            found = original(data, a, ap, R, dual)
            if len(calls) == before:  # no master LP: the read answered
                kind = type(found)
                certified.append(kind is OptimalityCertificate)
                answers.append((kind, isinstance(original(data, a, ap, R), kind)))
            return found

        mp.setattr(rankwalk.woa, "_descent_search", spy)
        for group, data, alpha in fits():
            certified.clear()
            out = minimize(data, alpha)
            ok = isinstance(out, Minimizer) and verify_certificate(data, alpha, out.beta_opt, out.certificate).ok
            per_fit.append((group, any(certified), ok))
    return per_fit, answers


def test_the_read_certifies_only_where_the_master_does(walked):
    """Both answers of the read: a certificate meets a master that
    certifies, and an edge meets a master that descends from that point."""
    per_fit, answers = walked
    assert len(per_fit) == 96 + 60 + 600
    kinds = [kind for kind, _ in answers]
    assert kinds.count(OptimalityCertificate) and kinds.count(np.ndarray)
    assert all(agreed for _, agreed in answers)
    assert kinds.count(OptimalityCertificate) == sum(read for _, read, _ in per_fit)  # one per fit: its last
    assert all(ok for _, read, ok in per_fit if read)


def test_the_walk_takes_the_read_on_most_fits(walked):
    per_fit, _ = walked
    walk = [read for group, read, _ in per_fit if group == "walk"]
    assert len(walk) == 96
    assert sum(walk) >= 75


@pytest.fixture(scope="module")
def tied_point():
    """The minimizer of an integer-grid fit whose tie blocks include one of
    at least three ranks: data, sorted weights and the tie blocks there."""
    cases = bench_cases()
    for seed in range(50):
        data = cases.integer_grid(seed, 12, 2)
        a = sorted_scores(make_scores("wilcoxon", 12), 12)
        out = minimize(data, a)
        if not isinstance(out, Minimizer):
            continue
        res = residuals(data, out.beta_opt)
        ap = active_pairs(res, default_tie_tol(res))
        sizes = np.bincount(ap.label)
        if sizes.max() >= 3 and sizes.size >= 2:
            return data, a, ap
    pytest.fail("no integer-grid minimizer with a tie block of three ranks")


def forged(a, ap, kind):
    """An ordering and a dual on its rows that break one condition of the
    read and keep the others."""
    label, gap = ap.label, np.diff(a.alpha)
    inner = np.flatnonzero(label[1:] == label[:-1])  # rows joining two ranks of one block
    posed, y = ap.order.copy(), np.zeros(label.size - 1)
    if kind == "an ordering off its tie blocks":
        r = np.flatnonzero(label[1:] != label[:-1])[0]
        posed[r:r + 2] = posed[r:r + 2][::-1]
        return posed, y
    if kind == "above the score gap":  # an edge, which the master's test refuses at this minimizer
        r = inner[0]
        y[r] = np.nextafter(gap[r], np.inf)
    elif kind == "two adjacent rows":
        r = inner[np.flatnonzero(inner[1:] == inner[:-1] + 1)[0]]
        y[r:r + 2] = 0.5 * gap[r:r + 2]
    else:
        r = np.flatnonzero(label[1:] != label[:-1])[0]
        y[r] = 0.5 * gap[r]
    return posed, y


@pytest.mark.parametrize("kind", ["above the score gap", "two adjacent rows", "a row joining two blocks",
                                  "an ordering off its tie blocks"])
def test_a_forged_dual_falls_through_to_the_master(monkeypatch, tied_point, kind):
    data, a, ap = tied_point
    want = _descent_search(data, a, ap)
    calls = counting_masters(monkeypatch)
    got = _descent_search(data, a, ap, dual=forged(a, ap, kind))
    assert calls
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
    else:
        assert isinstance(got, OptimalityCertificate) and got.decomposition == want.decomposition
