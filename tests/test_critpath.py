"""Critical path construction: P_n, gaps, central itineraries, omega."""

import pytest

from hubbardtrees.critpath import (
    alpha_point,
    build_critical_path,
    build_pn,
    central_itinerary,
    lower_sequence,
    path_table,
)
from hubbardtrees.errors import NotStarPeriodic, TrivialKneadingSequence
from hubbardtrees.symbolic import (
    EPSeq,
    INF,
    STAR,
    diff,
    format_sequence,
    kneading,
)

from conftest import star_periodic_sequences


# -- an intentionally dumb independent oracle ---------------------------------
#
# Sequences are plain strings of length HORIZON; the insertion recursion is
# re-implemented from scratch on those strings.  Slow and blunt on purpose.

HORIZON = 64


def _expand(word_pre, word_per):
    s = word_pre + word_per * (HORIZON // max(1, len(word_per)) + 1)
    return s[:HORIZON]


def _oracle_diff(x, y):
    for i, (a, b) in enumerate(zip(x, y), start=1):
        if a != "*" and b != "*" and a != b:
            return i
    return None


def _oracle_pn(nu_word, n):
    nu = _expand("", nu_word)
    star_nu = _expand("*", nu_word)
    pts = [star_nu, nu]
    for _ in range(n - 1):
        out = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            k = _oracle_diff(a, b)
            if k is not None:
                merged = "".join(
                    (y if x == "*" else x) for x, y in zip(a[: k - 1], b[: k - 1])
                )
                out.append((merged + "*" + nu)[:HORIZON])
            out.append(b)
        pts = out
    return pts


def test_airplane_p4_matches_hand_oracle():
    lib = [pt.seq for pt in build_pn(kneading("(10*)"), 4).points]
    oracle = _oracle_pn("10*", 4)
    assert len(lib) == len(oracle) == 9
    for seq, word in zip(lib, oracle):
        assert all(str(seq.at(i + 1)) == word[i] for i in range(HORIZON))
    # frozen expected words, computed with the oracle above
    got = [format_sequence(s) for s in lib]
    assert got == [
        "(*10)", "1101(*10)", "11(*10)", "111(*10)", "1(*10)",
        "10101(*10)", "101(*10)", "1011(*10)", "(10*)",
    ]


def test_oracle_and_library_agree_on_more_stages():
    for text in ["(10*)", "1(0)", "(10110*)", "(1001*)", "(10010*)"]:
        kn = kneading(text)
        for n in (2, 3, 5):
            lib = build_pn(kn, n).points
            if kn.star_periodic:
                word = "".join("*" if x is STAR else str(x) for x in kn.seq.per)
                oracle = _oracle_pn(word, n)
            else:
                pre = "".join(str(x) for x in kn.seq.pre)
                oracle = _oracle_pn_pre(pre, "".join(str(x) for x in kn.seq.per), n)
            assert len(lib) == len(oracle)
            for pt, word in zip(lib, oracle):
                for i in range(1, 40):
                    a, b = pt.seq.at(i), word[i - 1]
                    assert str(a) == b
def _oracle_pn_pre(pre, per, n):
    nu = _expand(pre, per)
    star_nu = ("*" + nu)[:HORIZON]
    pts = [star_nu, nu]
    for _ in range(n - 1):
        out = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            k = _oracle_diff(a, b)
            if k is not None:
                merged = "".join(
                    (y if x == "*" else x) for x, y in zip(a[: k - 1], b[: k - 1])
                )
                out.append((merged + "*" + nu)[:HORIZON])
            out.append(b)
        pts = out
    return pts


# -- examples ------------------------------------------------------------------


def test_basilica_p_infinity_is_p1():
    kn = kneading("(1*)")
    for n in (1, 3, 7):
        path = build_pn(kn, n)
        assert len(path.points) == 2
        assert len(path.gaps) == 1
    g = build_pn(kn, 2).gaps[0]
    assert central_itinerary(g, kn) == EPSeq((), (1,))


def test_period4_p2_and_gap():
    kn = kneading("(101*)")
    path = build_pn(kn, 2)
    names = [format_sequence(pt.seq) for pt in path.points]
    assert names == ["(*101)", "(1*10)", "(101*)"]
    (g,) = path.gaps
    assert (format_sequence(g.left), format_sequence(g.right)) == ("(1*10)", "(101*)")
    assert g.central == EPSeq((), (1, 0))


def test_central_itinerary_long_example():
    kn = kneading("(1100110*)")
    gaps = build_pn(kn, 8).gaps
    centrals = {format_sequence(g.central) for g in gaps}
    assert "(1100)" in centrals
    # the outermost gap (the one bounded by nu) carries it
    at_nu = [g for g in gaps if g.right == kn.seq]
    assert len(at_nu) == 1 and at_nu[0].central == EPSeq((), (1, 1, 0, 0))


def test_counts_no_gap_cases():
    for text in ["(10*)", "1(0)", "(10110*)"]:
        kn = kneading(text)
        for n in range(1, 11):
            assert len(build_pn(kn, n).points) == 2 ** (n - 1) + 1, (text, n)


def test_counts_standard_bifurcation_drops_below_formula():
    # a standard bifurcation develops a gap, so the no-gap count 2^(n-1)+1
    # is not attained from stage 4 on (here: Fibonacci growth instead);
    # the independent string oracle agrees
    kn = kneading("(10010*)")
    counts = [len(build_pn(kn, n).points) for n in range(1, 9)]
    assert counts == [2, 3, 5, 8, 13, 21, 34, 55]
    assert [len(_oracle_pn("10010*", n)) for n in range(1, 9)] == counts


def test_inserted_depth_exceeds_neighbours():
    kn = kneading("(10*)")
    stages = [build_pn(kn, n) for n in range(1, 7)]
    for prev, cur in zip(stages, stages[1:]):
        old = {pt.seq for pt in prev.points}
        pos = {pt.seq: i for i, pt in enumerate(cur.points)}
        depth = {pt.seq: (pt.depth if pt.depth is not None else 0)
                 for pt in cur.points}
        for pt in cur.points:
            if pt.seq in old:
                continue
            i = pos[pt.seq]
            left, right = cur.points[i - 1].seq, cur.points[i + 1].seq
            floor = max(depth.get(left, 0), depth.get(right, 0))
            assert depth[pt.seq] >= floor + 1


def test_gaps_iff_standard_bifurcation_period_le_8():
    from hubbardtrees.analysis import classify_bifurcation

    for kn in star_periodic_sequences(8):
        has_gap = bool(build_pn(kn, kn.period).gaps)
        assert has_gap == (classify_bifurcation(kn).kind == "standard"), str(kn)


def test_shift_distance_never_multiple_of_period():
    for kn in star_periodic_sequences(7):
        p = kn.period
        path = build_pn(kn, 6)
        for a, b in zip(path.points, path.points[1:]):
            da, db = a.seq.star_depth(), b.seq.star_depth()
            if da is None or db is None:
                continue
            t = abs(da - db)
            if t:
                assert t % p != 0, str(kn)


def test_labels_strictly_increasing_midpoint_rule():
    kn = kneading("(10*)")
    path = build_pn(kn, 6)
    labels = [pt.label for pt in path.points]
    assert all(a < b for a, b in zip(labels, labels[1:]))
    # stage n realizes all dyadics m / 2^(n-1) for no-gap sequences
    assert {lab.denominator for lab in labels} <= {1, 2, 4, 8, 16, 32}
    assert labels[0] == 0 and labels[-1] == 1


# -- lower sequences -------------------------------------------------------------


@pytest.mark.parametrize("text,omega", [
    ("(1*)", "(1)"),
    ("(10*)", "(101)"),
    ("(101*)", "(10)"),
    ("(10110*)", "(101)"),
    ("(10010*)", "(100)"),
    ("(11*)", "(1)"),
])
def test_lower_sequence(text, omega):
    kn = kneading(text)
    om = lower_sequence(kn)
    assert format_sequence(om) == omega
    assert diff(om, kn.seq) is INF


def test_lower_sequence_replaces_star_consistently():
    for kn in star_periodic_sequences(8):
        om = lower_sequence(kn)
        letters = {om.at(i) for i in range(1, kn.period * 2 + 1)
                   if kn.seq.at(i) is STAR}
        assert len(letters) == 1
        non_star = all(
            om.at(i) == kn.seq.at(i)
            for i in range(1, kn.period * 2 + 1)
            if kn.seq.at(i) is not STAR
        )
        assert non_star


def test_lower_sequence_requires_star_periodic():
    with pytest.raises(NotStarPeriodic):
        lower_sequence(kneading("1(0)"))


# -- full critical path ----------------------------------------------------------


def test_basilica_critical_path_is_two_fatou_intervals():
    kn = kneading("(1*)")
    path = build_critical_path(kn, 4)
    kinds = [(format_sequence(pt.seq), pt.kind) for pt in path.points]
    assert kinds == [("(*1)", "critical-point"), ("(1)", "central"),
                     ("(1*)", "critical-value")]
    ivs = {(format_sequence(f.a), format_sequence(f.b)) for f in path.fatou}
    assert ivs == {("(*1)", "(1)"), ("(1)", "(1*)")}


def test_airplane_path_has_omega_interval():
    kn = kneading("(10*)")
    path = build_critical_path(kn, 5)
    assert not path.gaps
    assert len(path.fatou) == 1
    f = path.fatou[0]
    assert format_sequence(f.a) == "(101)" and f.b == kn.seq
    assert path.points[-2].kind == "limit"


def test_nonperiodic_path_has_no_fatou():
    path = build_critical_path(kneading("1(0)"), 5)
    assert not path.fatou and not path.gaps
    assert len(path.points) == 17


def test_trivial_sequence_rejected():
    with pytest.raises(TrivialKneadingSequence):
        build_pn(kneading("(*)"), 2)


# -- alpha -------------------------------------------------------------------------


def test_alpha_gap_witness():
    w = alpha_point(kneading("(11*)"))
    assert w.kind == "gap-central" and w.alpha == EPSeq((), (1,))


def test_alpha_rho_chain():
    for text in ["(10*)", "1(0)"]:
        w = alpha_point(kneading(text), chain_length=10)
        assert w.kind == "rho-chain"
        alpha = w.alpha
        for n, rho in enumerate(w.chain):
            d = diff(rho, alpha)
            assert d is INF or d >= n - 1


# -- table export ---------------------------------------------------------------------


def test_path_table_deterministic_and_shaped():
    kn = kneading("(101*)")
    t1 = path_table(build_critical_path(kn, 3))
    t2 = path_table(build_critical_path(kn, 3))
    assert t1 == t2
    lines = t1.strip().split("\n")
    assert lines[0].split()[:5] == ["#", "kind", "depth", "word", "label"]
    assert any("gap-central" in ln for ln in lines)
