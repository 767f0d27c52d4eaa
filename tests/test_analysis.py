"""Orbit types, internal addresses, embeddability, entropy, recurrence."""

import math
import random

import numpy as np
import pytest

from hubbardtrees.analysis import (
    characteristic_point,
    classify_bifurcation,
    classify_orbit,
    core_entropy,
    embedding_report,
    enumerate_branch_points,
    internal_address,
    kneading_from_address,
    perron_root,
    recurrence_probe,
    valency,
)
from hubbardtrees.critpath import lower_sequence
from hubbardtrees.errors import (
    CriticalOrbit,
    NonIncreasingAddress,
    NotStarPeriodic,
    WrongDegree,
)
from hubbardtrees.generators import feigenbaum, staircase
from hubbardtrees.symbolic import (
    EPSeq,
    INF,
    STAR,
    diff,
    format_sequence,
    kneading,
    parse_sequence,
    validate_kneading,
)
from hubbardtrees.treebuild import build_tree

from conftest import star_periodic_sequences

fs = format_sequence
ALPHA = EPSeq((), (1,))


# -- valency -----------------------------------------------------------------------


def test_valency_rabbit_alpha():
    assert valency(kneading("(11*)"), ALPHA).value == 3


def test_valency_evil_characteristic():
    # p/q + 1 branches with p = 6, q = 3
    assert valency(kneading("(10110*)"), EPSeq((), (1, 0, 1))).value == 3


def test_valency_critical_value_is_one():
    for text in ["(10*)", "(101*)", "1(0)"]:
        kn = kneading(text)
        assert valency(kn, kn.seq).value == 1


# -- characteristic points -----------------------------------------------------------


def test_characteristic_period2_orbit():
    kn = kneading("(101*)")
    tau = EPSeq((), (0, 1))  # enter through the non-characteristic point
    ch = characteristic_point(kn, tau)
    assert ch == EPSeq((), (1, 0))


def test_characteristic_evil():
    kn = kneading("(10110*)")
    assert characteristic_point(kn, EPSeq((), (1, 0, 1))) == EPSeq((), (1, 0, 1))


def test_characteristic_fixed_point():
    kn = kneading("(11*)")
    assert characteristic_point(kn, ALPHA) == ALPHA


def test_characteristic_none_for_endpoint_orbit():
    # the fixed point ovl(0) attaches beyond the critical point: an
    # endpoint, so no orbit point separates it from the critical value
    kn = kneading("(10*)")
    assert characteristic_point(kn, EPSeq((), (0,))) is None


# -- orbit classification ----------------------------------------------------------------


def test_classify_primitive():
    kn = kneading("(10*)")
    rep = classify_orbit(kn, lower_sequence(kn))
    assert (rep.kind, rep.arms, rep.period) == ("primitive", 2, 3)


def test_classify_satellite():
    kn = kneading("(101*)")
    rep = classify_orbit(kn, EPSeq((), (1, 0)))
    assert (rep.kind, rep.arms, rep.period) == ("satellite", 2, 2)


def test_classify_evil():
    kn = kneading("(10110*)")
    rep = classify_orbit(kn, EPSeq((), (1, 0, 1)))
    assert (rep.kind, rep.arms, rep.period) == ("evil", 3, 3)
    assert rep.characteristic == EPSeq((), (1, 0, 1))


def test_classify_endpoint_orbit():
    rep = classify_orbit(kneading("(10*)"), EPSeq((), (0,)))
    assert rep.kind == "endpoints"


def test_classify_rejects_critical_orbit():
    kn = kneading("(10*)")
    with pytest.raises(CriticalOrbit):
        classify_orbit(kn, kn.seq)


# -- branch point enumeration ----------------------------------------------------------


def test_enumerate_branch_points_basilica_empty():
    assert enumerate_branch_points(build_tree(kneading("(1*)"))) == []


def test_enumerate_branch_points_rabbit():
    bps = enumerate_branch_points(build_tree(kneading("(11*)")))
    assert len(bps) == 1
    bp = bps[0]
    assert bp.point == ALPHA and bp.kind == "periodic"
    assert bp.orbit.kind == "satellite" and bp.orbit.arms == 3


def test_enumerate_branch_points_evil():
    bps = enumerate_branch_points(build_tree(kneading("(10110*)")))
    assert {fs(bp.point) for bp in bps} == {"(101)", "(011)", "(110)"}
    assert all(bp.kind == "periodic" and bp.orbit.kind == "evil" for bp in bps)


def test_branch_points_resolve_by_orbit_iteration():
    for text in ["(10110*)", "(1001101*)", "11(01)"]:
        kn = kneading(text)
        for bp in enumerate_branch_points(build_tree(kn)):
            s, seen = bp.point, set()
            while s not in seen:
                seen.add(s)
                s = s.tail()
            assert bp.kind in ("periodic", "preperiodic", "precritical",
                               "critical-orbit")


# -- internal addresses ---------------------------------------------------------------


@pytest.mark.parametrize("text,entries,finite", [
    ("(10*)", (1, 2, 3), True),
    ("(1100110*)", (1, 3, 4, 8), True),
    ("(1*)", (1, 2), True),
    ("(11*)", (1, 3), True),
    ("(10110*)", (1, 2, 4, 5, 6), True),
    ("(10010*)", (1, 2, 3, 6), True),
])
def test_internal_address_examples(text, entries, finite):
    addr = internal_address(kneading(text))
    assert addr.entries == entries and addr.finite == finite


def test_internal_address_infinite():
    addr = internal_address(parse_sequence("(101)", 2), max_entries=6)
    assert addr.entries == (1, 2, 4, 5, 7, 8)
    assert not addr.finite


def test_internal_address_finite_iff_star_periodic():
    # for abstract kneading sequences only: general periodic sequences
    # without a wildcard (not kneading sequences) can have finite
    # addresses too, like ovl(100)
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        if rng.random() < 0.5:
            p = rng.randint(2, 7)
            seq = EPSeq((), (1,) + tuple(rng.randint(0, 1) for _ in range(p - 2))
                        + (STAR,), 2)
        else:
            seq = EPSeq((1,) + tuple(rng.randint(0, 1) for _ in range(3)),
                        tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4))),
                        2)
        try:
            kn = validate_kneading(seq)
        except Exception:
            continue
        addr = internal_address(kn, max_entries=48)
        assert addr.finite == kn.star_periodic
        checked += 1


def test_internal_address_wrong_degree():
    with pytest.raises(WrongDegree):
        internal_address(parse_sequence("(12*)", 3))


@pytest.mark.parametrize("entries,text", [
    ((1, 2, 3), "(10*)"),
    ((1, 2), "(1*)"),
    ((1, 3, 4, 8), "(1100110*)"),
    ((1,), "(*)"),
])
def test_kneading_from_address_examples(entries, text):
    assert str(kneading_from_address(entries)) == text


def test_kneading_from_address_rejects_bad_input():
    with pytest.raises(NonIncreasingAddress):
        kneading_from_address([1, 3, 3])
    with pytest.raises(NonIncreasingAddress):
        kneading_from_address([2, 3])


def test_address_round_trip_small():
    rng = random.Random(5)
    for _ in range(80):
        entries = [1]
        while True:
            step = rng.randint(1, 4)
            if entries[-1] + step > 12:
                break
            entries.append(entries[-1] + step)
        kn = kneading_from_address(entries)
        assert internal_address(kn).entries == tuple(entries)


# -- bifurcation classes ------------------------------------------------------------------


@pytest.mark.parametrize("text,kind,q", [
    ("(10010*)", "standard", 3),
    ("(10110*)", "non-standard", 3),
    ("(10*)", "none", None),
    ("(101*)", "standard", 2),
    ("(11*)", "standard", 1),
    ("(1001100*)", "non-standard", 4),
    ("(11011*)", "standard", 3),
])
def test_classify_bifurcation(text, kind, q):
    bc = classify_bifurcation(kneading(text))
    assert (bc.kind, bc.q) == (kind, q)


def test_classify_bifurcation_requires_star_periodic():
    with pytest.raises(NotStarPeriodic):
        classify_bifurcation(kneading("1(0)"))


def test_gap_and_address_criteria_agree_period_le_10():
    from hubbardtrees.critpath import build_pn
    from hubbardtrees.symbolic import is_bifurcation

    for kn in star_periodic_sequences(10):
        bif = is_bifurcation(kn)
        has_gap = bool(build_pn(kn, kn.period).gaps)
        in_addr = bif is not None and bif.q in internal_address(kn).entries
        assert has_gap == in_addr, str(kn)


def test_valency_constant_along_periodic_orbits():
    from hubbardtrees.treebuild import sigma_closure

    for text in ["(11*)", "(101*)", "(10110*)", "(1001100*)", "(100101*)"]:
        kn = kneading(text)
        t = sigma_closure(build_tree(kn))
        om = lower_sequence(kn)
        degrees = {t.degree_of(s) for s in om.orbit() if s in t.adj}
        assert len(degrees) == 1, text


# -- embeddability ---------------------------------------------------------------------


@pytest.mark.parametrize("text,admissible,count", [
    ("(10*)", True, 1),
    ("(11*)", True, 2),
    ("(10110*)", False, 0),
    ("(1011*)", True, 1),
])
def test_embedding_report(text, admissible, count):
    rep = embedding_report(build_tree(kneading(text)))
    assert (rep.admissible, rep.count) == (admissible, count)


def test_embedding_truncated_is_provisional():
    rep = embedding_report(build_tree(staircase(15)))
    assert rep.provisional


# -- core entropy -----------------------------------------------------------------------


def test_entropy_basilica_zero():
    assert core_entropy(build_tree(kneading("(1*)"))) == pytest.approx(0.0, abs=1e-9)


def test_entropy_chebyshev_log2():
    h = core_entropy(build_tree(kneading("1(0)")))
    assert h == pytest.approx(math.log(2), abs=1e-9)


def test_entropy_airplane_golden_mean():
    # root of x^2 - x - 1, computed independently
    phi = float(max(np.roots([1, -1, -1])))
    h = core_entropy(build_tree(kneading("(10*)")))
    assert h == pytest.approx(math.log(phi), abs=1e-9)


@pytest.mark.parametrize("text,degree", [
    ("(101*)", 2),
    ("(11011*)", 2),
    ("(1011101*)", 2),
    ("(121*)", 3),
    ("[|1,-2,1,*]", INF),
])
def test_entropy_exactly_zero(text, degree):
    # transition matrices with a defective eigenvalue 1
    assert core_entropy(build_tree(kneading(text, degree))) == 0.0


def test_perron_root_against_eigvals():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = rng.integers(0, 3, size=(n, n))
        m = m + np.eye(n, dtype=np.int64)  # row sums >= 1 as in markov data
        want = max(abs(np.linalg.eigvals(m.astype(float))))
        got = perron_root(m.astype(np.int64))
        assert got == pytest.approx(want, abs=1e-7)
    # reducible: zero rows, no added identity
    for _ in range(40):
        n = int(rng.integers(1, 8))
        m = rng.integers(0, 2, size=(n, n)) * rng.integers(0, 2, size=(n, n))
        m[rng.integers(0, n)] = 0
        want = max(abs(np.linalg.eigvals(m.astype(float))))
        assert perron_root(m) == pytest.approx(want, abs=1e-7)
    assert perron_root([[1, 1], [0, 1]]) == 1.0
    assert perron_root(np.zeros((3, 3), dtype=np.int64)) == 0.0
    # a rho > 1 block over a defective unit block
    m = np.array([[1, 1, 1, 0, 0],
                  [1, 0, 0, 1, 0],
                  [0, 0, 1, 1, 0],
                  [0, 0, 0, 1, 1],
                  [0, 0, 0, 0, 1]])
    want = max(abs(np.linalg.eigvals(m.astype(float))))
    assert perron_root(m) == pytest.approx(want, abs=1e-9)
    assert perron_root(m) == pytest.approx((1 + 5 ** 0.5) / 2, abs=1e-12)


def test_perron_root_budget_raises(monkeypatch):
    from hubbardtrees import analysis
    from hubbardtrees.errors import DepthBudgetExceeded

    monkeypatch.setattr(analysis, "_PERRON_BUDGET", 3)
    with pytest.raises(DepthBudgetExceeded):
        perron_root(np.array([[1, 1], [1, 0]]))


def test_entropy_requires_finite_tree():
    from hubbardtrees.errors import TruncatedTree

    with pytest.raises(TruncatedTree):
        core_entropy(build_tree(staircase(15)))


# -- recurrence ------------------------------------------------------------------------


def test_recurrence_feigenbaum_witness_grows():
    kn = feigenbaum(32)
    probe = recurrence_probe(kn, 16)
    by_k = dict(probe.rows)
    # nu and sigma^{S_k} nu coincide for S_{k+1} - S_k - 1 entries
    assert by_k[2] == 2 and by_k[4] == 4 and by_k[8] == 8
    assert probe.witnessed_depth >= 7
    assert "recurrence witnessed" in probe.verdict


def test_recurrence_staircase_never_deep():
    kn = staircase(15)
    probe = recurrence_probe(kn, 14)
    # only the critical value starts 11, so no shift matches beyond 2 symbols
    assert all(d is INF or d <= 2 for _, d in probe.rows)
    assert probe.witnessed_depth <= 1


def test_recurrence_periodic_verdict():
    probe = recurrence_probe(kneading("(10*)"), 5)
    assert probe.verdict == "periodic"
    by_k = dict(probe.rows)
    assert by_k[3] is INF


# -- the full classification proposition -----------------------------------------------


def test_proposition_star_periodic_classification_period_le_6():
    # quick version; the acceptance suite sweeps period <= 8
    for kn in star_periodic_sequences(6):
        om = lower_sequence(kn)
        rep = classify_orbit(kn, om)
        bc = classify_bifurcation(kn)
        p = kn.period
        assert rep.characteristic == om  # the lower sequence is characteristic
        if bc.kind == "none":
            assert om.period_length == p
            assert (rep.kind, rep.arms) == ("primitive", 2)
        elif bc.kind == "standard":
            assert om.period_length == bc.q
            assert (rep.kind, rep.arms) == ("satellite", p // bc.q)
        else:
            assert om.period_length == bc.q
            assert (rep.kind, rep.arms) == ("evil", p // bc.q + 1)


def test_arm_map_injectivity_at_branch_points():
    from hubbardtrees.analysis import germ_image
    from hubbardtrees.treebuild import sigma_closure

    for text in ["(11*)", "(10110*)", "(100101*)", "11(01)"]:
        kn = kneading(text)
        t = sigma_closure(build_tree(kn))
        for v in t.branch_vertices():
            if v == t.crit:
                continue
            images = [germ_image(t, v, u) for u in t.neighbors(v)]
            assert len(set(images)) == len(images)


def test_per_diff_bound():
    for kn in star_periodic_sequences(8):
        for bp in enumerate_branch_points(build_tree(kn)):
            rep = bp.orbit
            if rep is None or rep.characteristic is None:
                continue
            d = diff(kn.seq, rep.characteristic)
            bound = (rep.arms - 2) * rep.period + 1
            assert d is INF or d >= bound, str(kn)


def test_return_to_critical_path():
    # every arm at a non-endpoint, non-precritical vertex eventually points
    # toward the critical value with the vertex on the critical path
    from hubbardtrees.analysis import germ_image
    from hubbardtrees.treebuild import meet, sigma_closure

    for text in ["(10*)", "(10110*)", "(1001*)"]:
        kn = kneading(text)
        t = sigma_closure(build_tree(kn))
        budget = 4 * len(t.vertices())
        for v in t.vertices():
            if t.degree_of(v) <= 1 or v.contains_star():
                continue
            for u in t.neighbors(v):
                x, toward = v, u
                ok = False
                for _ in range(budget):
                    on_path = meet(kn.critical_point(), x, kn.seq, kn) == x
                    if on_path and t.path_between(x, kn.seq)[1] == toward:
                        ok = True
                        break
                    x, toward = germ_image(t, x, toward)
                assert ok, (text, fs(v), fs(u))
