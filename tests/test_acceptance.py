"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS
lines as they print).
"""

import itertools
import math
import random

import numpy as np
import pytest

from hubbardtrees.analysis import (
    classify_bifurcation,
    classify_orbit,
    core_entropy,
    embedding_report,
    enumerate_branch_points,
    germ_image,
    internal_address,
    kneading_from_address,
)
from hubbardtrees.critpath import build_critical_path, build_pn, lower_sequence
from hubbardtrees.generators import feigenbaum, staircase
from hubbardtrees.symbolic import (
    EPSeq,
    INF,
    STAR,
    diff,
    format_sequence,
    kneading,
    precritical,
    validate_kneading,
)
from hubbardtrees.treebuild import build_tree, meet, sigma_closure

from conftest import path_points, star_periodic_sequences

ALPHA = EPSeq((), (1,))


def _pass(cid, msg):
    print(f"ACCEPTANCE {cid:02d}: PASS - {msg}")


# -- 1 ---------------------------------------------------------------------------


def test_criterion_01_basilica():
    kn = kneading("(1*)")
    path = build_critical_path(kn, 6)
    pn = [s for kind, _, s in path_points(path) if kind != "central"]
    assert pn == [kn.critical_point(), kn.seq]
    assert len(path.gaps) == 1
    assert path.gaps[0].central == ALPHA
    assert len(path.fatou) == 2

    tree = build_tree(kn)
    assert len(tree.vertices()) == 3
    edges = tree.edges()
    assert len(edges) == 2
    assert all(tree.is_fatou_edge(u, v) for u, v in edges)
    _pass(1, "basilica path {**nu, nu}, gap with central (1), 2 Fatou; "
             "tree 3 vertices / 2 Fatou edges")


# -- 2 ---------------------------------------------------------------------------


# Stage at which P_n first holds a gap pair (None: no gap up to stage 10).
# (10*) and 1(0) are no bifurcations; (10010*) is the standard bifurcation
# of (10*) and splits off the gap (sigma^3 nu, nu) at stage 3.
FIRST_GAP = {"(10*)": None, "1(0)": None, "(10010*)": 3}


@pytest.mark.parametrize("text", ["(10*)", "1(0)", "(10010*)"])
def test_criterion_02_precritical_counts(text):
    # |P_n| = 2^(n-1)+1 holds only while no adjacent pair is a gap; a gap
    # pair gets no midpoint, so |P_{n+1}| = 2|P_n| - 1 - #gaps(P_n)
    kn = kneading(text)
    stages = [build_pn(kn, n) for n in range(1, 11)]
    counts = [len(path.rows) for path in stages]
    n_gaps = [len(path.gaps) for path in stages]
    first_gap = next((n for n, g in enumerate(n_gaps, 1) if g), None)
    assert first_gap == FIRST_GAP[text], (text, n_gaps)

    formula = [2 ** (n - 1) + 1 for n in range(1, 11)]
    gap_free = first_gap or len(stages)
    assert counts[:gap_free] == formula[:gap_free], (text, counts)
    for n in range(1, len(stages)):
        assert counts[n] == 2 * counts[n - 1] - 1 - n_gaps[n - 1], (text, n, counts)

    if first_gap is None:
        _pass(2, f"|P_n| = 2^(n-1)+1 for {text}, n = 1..10, no gap")
        return

    assert classify_bifurcation(kn).kind == "standard"
    nu, left = kn.seq, kn.seq.shift(3)
    (gap,) = stages[first_gap - 1].gaps
    assert (gap.left, gap.right) == (left, nu)
    omega = lower_sequence(kn)
    assert gap.central == omega == EPSeq((), (1, 0, 0))
    for path in stages[first_gap - 1:]:
        # nothing is ever inserted between sigma^3 nu and nu
        assert precritical(path.rows[-2][2], kn) == left and gap in path.gaps
    assert all(c < f for c, f in zip(counts[first_gap:], formula[first_gap:]))
    _pass(2, f"{text} standard: |P_n| = 2^(n-1)+1 for n = 1..{first_gap}; "
             f"first gap at stage {first_gap} is (sigma^3 nu, nu) = "
             f"({format_sequence(left)}, {text}), central "
             f"{format_sequence(omega)} = omega, unsplit to stage 10; "
             f"|P_(n+1)| = 2|P_n| - 1 - #gaps(P_n) for n = 1..9: "
             f"{', '.join(map(str, counts))}")


# -- 3 ---------------------------------------------------------------------------


def test_criterion_03_period4_bifurcation():
    kn = kneading("(101*)")
    path = build_pn(kn, 2)
    names = [format_sequence(s) for *_, s in path_points(path)]
    assert names == ["(*101)", "(1*10)", "(101*)"]
    (gap,) = path.gaps
    assert gap.left == kn.seq.shift(2) and gap.right == kn.seq
    assert gap.central == EPSeq((), (1, 0))
    _pass(3, "P_2 of (101*) is {*nu, 1*nu, nu}; gap (1*nu, nu) central (10)")


# -- 4 ---------------------------------------------------------------------------


def test_criterion_04_internal_addresses():
    assert internal_address(kneading("(10*)")).entries == (1, 2, 3)
    from hubbardtrees.symbolic import parse_sequence

    inf_addr = internal_address(parse_sequence("(101)", 2), max_entries=6)
    assert inf_addr.entries == (1, 2, 4, 5, 7, 8) and not inf_addr.finite
    assert internal_address(kneading("(1100110*)")).entries == (1, 3, 4, 8)

    count = 0
    for r in range(0, 12):
        for extra in itertools.combinations(range(2, 13), r):
            entries = (1,) + extra
            kn = kneading_from_address(entries)
            back = internal_address(kn)
            assert back.finite and back.entries == entries, entries
            count += 1
    assert count == 2 ** 11
    _pass(4, f"named addresses exact; {count} round-trips with last entry <= 12")


# -- 5 ---------------------------------------------------------------------------


def test_criterion_05_classification_sweep():
    swept = {"none": 0, "standard": 0, "non-standard": 0}
    for kn in star_periodic_sequences(8):
        p = kn.period
        om = lower_sequence(kn)
        rep = classify_orbit(build_tree(kn), om)
        bc = classify_bifurcation(kn)
        has_gap = bool(build_pn(kn, p).gaps)
        in_addr = (bc.q in internal_address(kn).entries
                   if bc.kind != "none" else False)
        assert rep.characteristic == om, str(kn)
        if bc.kind == "none":
            assert om.period_length == p, str(kn)
            assert (rep.kind, rep.arms) == ("primitive", 2), str(kn)
            assert not has_gap
        elif bc.kind == "standard":
            assert om.period_length == bc.q, str(kn)
            assert (rep.kind, rep.arms) == ("satellite", p // bc.q), str(kn)
            assert has_gap and in_addr
        else:
            assert om.period_length == bc.q, str(kn)
            assert (rep.kind, rep.arms) == ("evil", p // bc.q + 1), str(kn)
            assert not has_gap and not in_addr
        swept[bc.kind] += 1
    assert sum(swept.values()) == 127
    _pass(5, f"all 127 star-periodic sequences of period <= 8 classified: {swept}")


# -- 6 ---------------------------------------------------------------------------


def test_criterion_06_embeddability():
    tree = build_tree(kneading("(10110*)"))
    evil = embedding_report(tree, enumerate_branch_points(tree))
    assert not evil.admissible and evil.count == 0
    assert len(evil.evil_orbits) == 1
    assert (evil.evil_orbits[0].period, evil.evil_orbits[0].arms) == (3, 3)

    tree = build_tree(kneading("(11*)"))
    rabbit = embedding_report(tree, enumerate_branch_points(tree))
    assert rabbit.admissible and rabbit.count == 2

    tree = build_tree(kneading("(10*)"))
    airplane = embedding_report(tree, enumerate_branch_points(tree))
    assert airplane.admissible and airplane.count == 1
    _pass(6, "(10110*) inadmissible (evil period 3, 3 arms); "
             "(11*) count phi(3)=2; (10*) count 1")


# -- 7 ---------------------------------------------------------------------------


def _random_kneading(rng, star_periodic):
    while True:
        if star_periodic:
            p = rng.randint(2, 8)
            seq = EPSeq((), (1,) + tuple(rng.randint(0, 1) for _ in range(p - 2))
                        + (STAR,), 2)
        else:
            seq = EPSeq(
                (1,) + tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3))),
                tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 5))),
                2,
            )
        try:
            return validate_kneading(seq)
        except Exception:
            continue


def test_criterion_07_invariant_suite():
    rng = random.Random(0x5EED)
    cases = 0
    for i in range(500):
        kn = _random_kneading(rng, i % 2 == 0)
        tree = build_tree(kn)
        assert tree.finite
        vs = tree.vertices()

        # nu is an endpoint
        assert tree.degree_of(kn.seq) == 1, str(kn)
        # edge count
        assert len(tree.edges()) == len(vs) - 1, str(kn)
        # endpoints are exactly an initial segment of the critical orbit
        eps = set(tree.endpoints())
        assert eps == {kn.seq.shift(k) for k in range(len(eps))}, str(kn)

        # diff monotonicity along sampled paths
        for _ in range(4):
            a, b = rng.sample(vs, 2)
            d = diff(a, b)
            for c in tree.path_between(a, b)[1:-1]:
                dc = diff(a, c)
                assert dc is INF or dc >= d, str(kn)

        # meet permutation symmetry
        if len(vs) >= 3:
            for _ in range(2):
                x, y, z = rng.sample(vs, 3)
                results = {meet(*perm, kn)
                           for perm in itertools.permutations((x, y, z))}
                assert len(results) == 1, str(kn)

        closed = sigma_closure(tree)
        for bp in enumerate_branch_points(tree):
            # no wandering branch points: orbit resolves
            assert bp.kind in ("periodic", "preperiodic", "precritical",
                               "critical-orbit"), str(kn)
            s, seen = bp.point, set()
            while s not in seen:
                seen.add(s)
                s = s.tail()
            # per-diff bound at periodic characteristic branch points
            rep = bp.orbit
            if rep is not None and rep.characteristic is not None:
                d = diff(kn.seq, rep.characteristic)
                assert d is INF or d >= (rep.arms - 2) * rep.period + 1, str(kn)

        # arm-map injectivity at every non-critical branch vertex
        for v in closed.branch_vertices():
            if v == closed.crit:
                continue
            images = [germ_image(closed, v, u) for u in closed.neighbors(v)]
            assert len(set(images)) == len(images), str(kn)
        cases += 1
    assert cases == 500
    _pass(7, "500 randomized kneading sequences, zero invariant violations")


# -- 8 ---------------------------------------------------------------------------


def test_criterion_08_core_entropy():
    # named values against independently computed characteristic roots
    basilica = core_entropy(build_tree(kneading("(1*)")))
    assert abs(basilica - 0.0) <= 1e-9

    chebyshev = core_entropy(build_tree(kneading("1(0)")))
    assert abs(chebyshev - math.log(2.0)) <= 1e-9

    golden = float(max(np.roots([1, -1, -1]).real))
    airplane = core_entropy(build_tree(kneading("(10*)")))
    assert abs(airplane - math.log(golden)) <= 1e-9

    bound = math.log(2.0) + 1e-9
    worst = 0.0
    for kn in star_periodic_sequences(8):
        h = core_entropy(build_tree(kn))
        assert 0.0 <= h <= bound, str(kn)
        worst = max(worst, h)
    _pass(8, f"0 / log 2 / log phi within 1e-9; sweep max h = {worst:.6f} "
             f"<= log 2")


# -- 9 ---------------------------------------------------------------------------


def _reaches_alpha_orbit(v, budget):
    s = v
    for _ in range(budget + 1):
        if s.exact:
            if s == ALPHA:
                return True
        else:
            if s.pre and all(x == 1 for x in s.pre):
                return True
        s = s.tail()
    return False


def test_criterion_09_infinite_tree_truncations():
    depth = 15
    tree = build_tree(staircase(depth))
    assert not tree.finite
    assert tree.postcritical, "staircase tree lost its marked orbit"
    for v in tree.postcritical:
        assert tree.degree_of(v) == 1, format_sequence(v)
    branch = tree.branch_vertices()
    assert branch, "staircase tree should branch"
    for v in branch:
        assert _reaches_alpha_orbit(v, 2 * depth), format_sequence(v)

    fb = build_tree(feigenbaum(32))
    assert all(fb.degree_of(v) <= 2 for v in fb.vertices())
    _pass(9, f"staircase@15: all {len(tree.postcritical)} postcritical "
             f"vertices are leaves, {len(branch)} branch vertices fall into "
             "the orbit of (1); feigenbaum@32 is an interval")


# -- 10 --------------------------------------------------------------------------


def test_criterion_10_infinite_degree_smoke():
    valencies = []
    for k in range(2, 8):
        word = tuple(range(1, k + 1)) + (STAR,)
        kn = validate_kneading(EPSeq((), word, INF))
        tree = build_tree(kn)
        valencies.append(tree.degree_of(kn.critical_point()))
    assert valencies == sorted(valencies)
    assert valencies[-1] > valencies[0]
    _pass(10, f"critical-point valency over k = 2..7 symbols: {valencies}")


# -- 11 --------------------------------------------------------------------------


def test_criterion_11_meet_oracle_equivalence():
    texts = ["(10*)", "1(0)", "(1011*)"]
    total = 0
    for text in texts:
        kn = kneading(text)
        assert not kn.star_periodic or not build_pn(kn, 8).gaps
        pts = [(label, s) for _, label, s in path_points(build_pn(kn, 8))]
        assert len(pts) == 129  # includes *nu and nu
        # the points come in path order, so combinations keeps it and the
        # middle of each tripod is its second point
        assert all(x < y for (x, _), (y, _) in zip(pts, pts[1:]))
        for a, b, c in itertools.combinations([s for _, s in pts], 3):
            assert meet(a, b, c, kn) == b
            total += 1
    _pass(11, f"meet recursion == order-scan middle on {total} tripods "
              f"from P_8 of {texts}")
