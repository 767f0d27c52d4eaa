"""Critical path construction: P_n, gaps, central itineraries, omega."""

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import pytest

from hubbardtrees import critpath
from hubbardtrees.cli import main
from hubbardtrees.critpath import (
    alpha_point,
    build_critical_path,
    build_pn,
    lower_sequence,
    path_table,
)
from hubbardtrees.errors import (
    DepthBudgetExceeded,
    KneadingError,
    NotStarPeriodic,
    PeriodicWithoutStar,
    TrivialKneadingSequence,
)
from hubbardtrees.generators import make
from hubbardtrees.symbolic import (
    EPSeq,
    INF,
    STAR,
    angle_to_kneading,
    diff,
    format_key,
    format_sequence,
    kneading,
    parse_prefix,
    precritical,
    validate_kneading,
)

from conftest import path_points, star_periodic_sequences


def _row_points(path):
    """(kind, label, depth, word, itinerary) per row, as the reference keeps
    its points: a point w*nu is its word, and its itinerary is None."""
    return [(kind, None if num is None else Fraction(*path.ratio(kind, num)),
             None if w is None else len(w) + 1, w, itinerary)
            for kind, num, w, _, itinerary in path.rows]


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
    lib = [s for *_, s in path_points(build_pn(kneading("(10*)"), 4))]
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
            lib = [s for *_, s in path_points(build_pn(kn, n))]
            if kn.star_periodic:
                word = "".join("*" if x is STAR else str(x) for x in kn.seq.per)
                oracle = _oracle_pn(word, n)
            else:
                pre = "".join(str(x) for x in kn.seq.pre)
                oracle = _oracle_pn_pre(pre, "".join(str(x) for x in kn.seq.per), n)
            assert len(lib) == len(oracle)
            for seq, word in zip(lib, oracle):
                for i in range(1, 40):
                    a, b = seq.at(i), word[i - 1]
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


# -- the per-symbol construction, kept as a reference -------------------------
#
# build_pn carries each point as its word w and splits a pair in one scan.
# This is the stage loop it replaced: diff on the two sequences, the merged
# letters read through at(), the new point built as a sequence and its depth
# re-read with star_depth().


def _ref_merge_letters(a, b, upto):
    out = []
    for i in range(1, upto + 1):
        x, y = a.at(i), b.at(i)
        assert x is not STAR or y is not STAR
        out.append(y if x is STAR else x)
    return tuple(out)


def _ref_pn(nu, n):
    """(seq, label, depth, word) per point of P_n, and (left, right,
    central) per gap."""
    points = [(nu.critical_point(), Fraction(0)), (nu.seq, Fraction(1))]
    for _ in range(n - 1):
        nxt = [points[0]]
        for (a, la), (b, lb) in zip(points, points[1:]):
            k = diff(a, b)
            if k is not INF:
                w = _ref_merge_letters(a, b, k - 1)
                nxt.append((precritical(w, nu), (la + lb) / 2))
            nxt.append((b, lb))
        points = nxt
    rows = []
    for i, (s, label) in enumerate(points):
        depth = (1 if i == 0 else None if i == len(points) - 1
                 else s.star_depth())
        word = None if depth is None else tuple(s.at(j) for j in range(1, depth))
        rows.append((s, label, depth, word))
    gaps = []
    for (a, _), (b, _) in zip(points, points[1:]):
        if a.exact and b.exact and diff(a, b) is INF:
            m = max(len(a.pre), len(b.pre))
            letters = _ref_merge_letters(a, b, m + math.lcm(len(a.per), len(b.per)))
            gaps.append((a, b, EPSeq(letters[:m], letters[m:], a.degree)))
    return rows, gaps


def _word_level_inputs():
    for kn in star_periodic_sequences(8):
        yield kn
    for n in range(1, 5):
        for k in range(3 ** n - 1):
            yield angle_to_kneading(Fraction(k, 3 ** n - 1), 3)
    for k in range(18):
        yield angle_to_kneading(Fraction(k, 18), 3)
    for text in ["[|1,5,*]", "[|1,2,*]", "[|1,0,*]", "[|1,3,0,*]",
                 "[|1,-2,4,*]", "[|1,1,2,*]", "[1,7|3,2]", "[1|0]", "[1,2|5]"]:
        yield kneading(text, INF)
    for lp, lq in itertools.product((1, 2, 3), (1, 2, 3)):
        for bits in itertools.product("01", repeat=lp + lq - 1):
            text = "1" + "".join(bits[:lp - 1]) + "(" + "".join(bits[lp - 1:]) + ")"
            try:
                yield kneading(text)
            except PeriodicWithoutStar:
                continue  # 1(1) and the like are purely periodic
    for bits in itertools.product("01", repeat=5):
        yield validate_kneading(parse_prefix("1" + "".join(bits)))
    yield validate_kneading(parse_prefix("1011011100"))
    for name, depth, params in [("staircase", 12, ""), ("feigenbaum", 8, ""),
                                ("feigenbaum", 16, ""), ("address", 16, "1,2,4"),
                                ("prefix", 16, "110100")]:
        yield make(name, depth=depth, params=params)


def test_word_level_path_matches_per_symbol_reference():
    seen = gapped = 0
    for kn in _word_level_inputs():
        if kn.trivial:
            continue
        path = build_pn(kn, 8)
        seen, gapped = seen + 1, gapped + bool(path.gaps)
        rows, gaps = _ref_pn(kn, 8)
        got = [(s, label, depth, w) for (_, label, depth, w, _), (*_, s)
               in zip(_row_points(path), path_points(path))]
        assert got == rows, str(kn)
        assert [(g.left, g.right, g.central) for g in path.gaps] == gaps, str(kn)
    assert (seen, gapped) == (375, 65)


def test_point_budget(monkeypatch):
    monkeypatch.setattr(critpath, "MAX_PATH_POINTS", 13)
    assert len(build_pn(kneading("(10*)"), 4).rows) == 9
    with pytest.raises(DepthBudgetExceeded):
        build_pn(kneading("(10*)"), 5)
    # gaps keep paths small: 13 points at stage 5, 21 at stage 6
    assert len(build_pn(kneading("(10010*)"), 5).rows) == 13
    with pytest.raises(DepthBudgetExceeded):
        build_pn(kneading("(10010*)"), 6)
    assert len(build_pn(kneading("(1*)"), 40).rows) == 2


# -- examples ------------------------------------------------------------------


def test_basilica_p_infinity_is_p1():
    kn = kneading("(1*)")
    for n in (1, 3, 7):
        path = build_pn(kn, n)
        assert len(path.rows) == 2
        assert len(path.gaps) == 1
    g = build_pn(kn, 2).gaps[0]
    assert g.central == EPSeq((), (1,))


def test_period4_p2_and_gap():
    kn = kneading("(101*)")
    path = build_pn(kn, 2)
    names = [format_sequence(s) for *_, s in path_points(path)]
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
            assert len(build_pn(kn, n).rows) == 2 ** (n - 1) + 1, (text, n)


def test_counts_standard_bifurcation_drops_below_formula():
    # a standard bifurcation develops a gap, so the no-gap count 2^(n-1)+1
    # is not attained from stage 4 on (here: Fibonacci growth instead);
    # the independent string oracle agrees
    kn = kneading("(10010*)")
    counts = [len(build_pn(kn, n).rows) for n in range(1, 9)]
    assert counts == [2, 3, 5, 8, 13, 21, 34, 55]
    assert [len(_oracle_pn("10010*", n)) for n in range(1, 9)] == counts


def test_inserted_depth_exceeds_neighbours():
    kn = kneading("(10*)")
    stages = [build_pn(kn, n) for n in range(1, 7)]
    for prev, cur in zip(stages, stages[1:]):
        old = {s for *_, s in path_points(prev)}
        seqs = [s for *_, s in path_points(cur)]
        pos = {s: i for i, s in enumerate(seqs)}
        depth = {s: (d if d is not None else 0)
                 for s, (_, _, d, _, _) in zip(seqs, _row_points(cur))}
        for s in seqs:
            if s in old:
                continue
            i = pos[s]
            left, right = seqs[i - 1], seqs[i + 1]
            floor = max(depth.get(left, 0), depth.get(right, 0))
            assert depth[s] >= floor + 1


def test_gaps_iff_standard_bifurcation_period_le_8():
    from hubbardtrees.analysis import classify_bifurcation

    for kn in star_periodic_sequences(8):
        has_gap = bool(build_pn(kn, kn.period).gaps)
        assert has_gap == (classify_bifurcation(kn).kind == "standard"), str(kn)


@pytest.mark.parametrize("degree,pmax", [(3, 7), (4, 6)])
def test_gaps_iff_standard_bifurcation_higher_degree(degree, pmax):
    # classify_bifurcation reads the gap off the refinement at nu alone;
    # P_p built in full is the oracle, also where no address criterion is
    from hubbardtrees.analysis import classify_bifurcation

    for kn in star_periodic_sequences(pmax, degree=degree):
        has_gap = bool(build_pn(kn, kn.period).gaps)
        assert has_gap == (classify_bifurcation(kn).kind == "standard"), str(kn)


def _eventually_periodic(degree, maxpre, maxper):
    """Every wildcard-free exact kneading sequence with a preperiod of at
    most maxpre letters and a period of at most maxper."""
    out = {}
    for a, b in itertools.product(range(maxpre + 1), range(1, maxper + 1)):
        for pre in itertools.product(range(degree), repeat=a):
            for per in itertools.product(range(degree), repeat=b):
                try:
                    kn = validate_kneading(EPSeq(pre, per, degree))
                except KneadingError:
                    continue
                out[kn.seq] = kn
    return list(out.values())


def _reference_gaps(path):
    """The full pair scan: every adjacent pair of P_n without a difference."""
    pts = [s for *_, s in path_points(path)]
    return [(a, b) for a, b in zip(pts, pts[1:]) if diff(a, b) is INF]


def test_only_star_periodic_sequences_have_gaps():
    kns = _eventually_periodic(2, 4, 4) + _eventually_periodic(3, 3, 3)
    assert len(kns) == 451
    kns += list(star_periodic_sequences(7))  # where gaps do occur
    gapped = 0
    for kn in kns:
        path = build_pn(kn, 7)
        want = _reference_gaps(path)
        assert [(g.left, g.right) for g in path.gaps] == want, str(kn)
        gapped += bool(want)
    assert gapped > 3


def test_shift_distance_never_multiple_of_period():
    for kn in star_periodic_sequences(7):
        p = kn.period
        path = build_pn(kn, 6)
        pts = [s for *_, s in path_points(path)]
        for a, b in zip(pts, pts[1:]):
            da, db = a.star_depth(), b.star_depth()
            if da is None or db is None:
                continue
            t = abs(da - db)
            if t:
                assert t % p != 0, str(kn)


def test_labels_strictly_increasing_midpoint_rule():
    kn = kneading("(10*)")
    path = build_pn(kn, 6)
    labels = [label for _, label, _ in path_points(path)]
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
    kinds = [(format_sequence(s), kind) for kind, _, s in path_points(path)]
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
    assert path.rows[-2][0] == "limit"


def test_nonperiodic_path_has_no_fatou():
    path = build_critical_path(kneading("1(0)"), 5)
    assert not path.fatou and not path.gaps
    assert len(path.rows) == 17


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


# -- points as words ------------------------------------------------------------------


def test_path_builds_no_sequence_per_point(constructions):
    nu = kneading("(10*)")
    path = build_critical_path(nu, 12)
    path_table(path)
    assert constructions[0] < 64
    assert len(path.rows) > 2000


def test_point_sequences_are_built_on_read():
    for text in ("(10*)", "(10010*)", "10(011)"):
        nu = kneading(text)
        path = build_critical_path(nu, 7)
        s = nu.seq
        for _, _, w, _, _ in path.rows:
            if w is not None:
                assert precritical(w, nu) is EPSeq(w + (STAR,) + s.pre, s.per, 2)


# -- the tail split, against the whole-word split it replaced ---------------------
#
# _Words.split scans only the older point's tail, a shift of nu, against *nu,
# once per distinct shift.  This is the split it replaced: both points laid
# out in full, one scan of the pair.


class _WholeWords:
    def __init__(self, nu):
        self.seq = s = nu.seq
        self.suffix = (STAR,) + s.pre + (s.per or ())

    def split(self, wa, wb):
        s = self.seq
        if s.exact:
            bound = max(len(wa or ()), len(wb or ())) + 1 + len(s.pre) + len(s.per)
            while len(self.suffix) <= bound:
                self.suffix += s.per
        suffix = self.suffix
        x = suffix[1:] if wa is None else wa + suffix
        y = suffix[1:] if wb is None else wb + suffix
        return critpath._split(x, y, bound if s.exact else min(len(x), len(y)))


def _whole_word_pn(nu, n):
    """(word, label numerator over 2^(n-1)) per point of P_n and (left,
    right, central) per gap, every pair scanned in full at every stage."""
    words = _WholeWords(nu)
    points = [((), 0), (None, 1 << (n - 1))]
    for _ in range(n - 1):
        nxt = [points[0]]
        for (wa, la), (wb, lb) in zip(points, points[1:]):
            k, w = words.split(wa, wb)
            if k is not INF:
                nxt.append((w, (la + lb) >> 1))
            nxt.append((wb, lb))
        points = nxt
    gaps = []
    if nu.star_periodic:
        p = nu.period
        for (wa, _), (wb, _) in zip(points, points[1:]):
            k, letters = words.split(wa, wb)
            if k is INF:
                gaps.append((precritical(wa, nu),
                             nu.seq if wb is None else precritical(wb, nu),
                             EPSeq(letters[:-p], letters[-p:], nu.degree)))
    return points, gaps


def _whole_word_chains(nu):
    """nu_chain's (words, central) and the words of alpha_point's rho
    chain (12 long)."""
    words = _WholeWords(nu)
    chain = None
    if nu.star_periodic:
        p, ws, central = nu.period, [()], None
        while True:
            k, w = words.split(ws[-1], None)
            if k is INF:
                central = EPSeq(w[:-p], w[-p:], nu.degree)
                break
            if len(ws[-1]) >= 4 * p:
                break
            ws.append(w)
        chain = ws, central
    rho = [None, ()]
    while len(rho) < 12:
        k, w = words.split(rho[-1], rho[-2])
        if k is INF:
            break
        rho.append(w)
    return chain, rho


def _tail_split_inputs():
    yield from star_periodic_sequences(9)
    yield from _eventually_periodic(2, 4, 4)
    for bits in itertools.islice(itertools.product("01", repeat=9), 0, None, 4):
        yield validate_kneading(parse_prefix("1" + "".join(bits)))
    for n in range(1, 5):
        for k in range(3 ** n - 1):
            yield angle_to_kneading(Fraction(k, 3 ** n - 1), 3)
    for text in ["[|1,5,*]", "[|1,2,*]", "[|1,0,*]", "[|1,3,0,*]",
                 "[|1,-2,4,*]", "[|1,1,2,*]", "[|1,12,11,*]", "[1,7|3,2]",
                 "[1|0]", "[1,2|5]"]:
        yield kneading(text, INF)
    for name in ("staircase", "feigenbaum"):
        for depth in (8, 12, 16, 24):
            yield make(name, depth=depth)


def test_tail_split_matches_whole_word_split():
    seen = gapped = 0
    for kn in _tail_split_inputs():
        if kn.trivial:
            continue
        seen += 1
        path = build_pn(kn, 10)
        points, gaps = _whole_word_pn(kn, 10)
        got = [(w, label.numerator * (512 // label.denominator))
               for _, label, _, w, _ in _row_points(path)]
        assert got == points, str(kn)
        assert [(g.left, g.right, g.central) for g in path.gaps] == gaps, str(kn)
        gapped += bool(gaps)
        chain, rho = _whole_word_chains(kn)
        if chain is not None:
            assert critpath.nu_chain(kn) == chain, str(kn)
        witness = alpha_point(kn)
        if witness.kind == "rho-chain":
            want = [kn.seq if w is None else precritical(w, kn) for w in rho]
            assert list(witness.chain) == want, str(kn)
    assert (seen, gapped) == (674, 67)


def test_tail_split_scans_each_tail_once(monkeypatch):
    scans = []

    def counting(*args):
        scans.append(args)
        return split(*args)

    split = critpath._split
    monkeypatch.setattr(critpath, "_split", counting)
    assert len(build_pn(kneading("(10*)"), 12).rows) == 2049
    assert len(scans) < 64  # the whole-word split scanned 4,095 pairs
    scans.clear()
    path = build_pn(kneading("(10010*)"), 12)
    assert (len(path.rows), len(path.gaps)) == (377, 143)
    assert len(scans) < 64


# -- the one-pass path, against the key-matching passes it replaced ----------------
#
# build_critical_path walks the pairs of P_n once, placing each gap's central
# point and Fatou intervals beside the pair, and path_table reads its markers
# off the neighbours' kinds.  This is what it replaced: P_n built with its
# gaps first, then each gap found again by its left point's key, and the
# table's markers looked up in two key sets.


@dataclass(frozen=True)
class _KeyedPoint:
    kind: str
    label: object
    depth: object = None
    word: object = None
    nu: object = field(default=None, repr=False)
    itinerary: object = None

    @cached_property
    def seq(self):
        if self.word is None:
            return self.itinerary
        return precritical(self.word, self.nu)


@dataclass
class _KeyedPath:  # the CriticalPath of those passes: a list of points
    nu: object
    points: list
    gaps: list
    fatou: list = field(default_factory=list)


def _keyed_pn(nu, n):
    words = critpath._Words(nu)
    scale = 1 << (n - 1)
    points = [((), 0), (None, scale)]
    for _ in range(2, n + 1):
        nxt = [points[0]]
        for (wa, la), b in zip(points, points[1:]):
            k, w, _ = words.split(wa, b[0])
            if k is not INF:
                nxt.append((w, (la + b[1]) >> 1))
            nxt.append(b)
        points = nxt

    last = len(points) - 1
    out = [_KeyedPoint("critical-point", Fraction(0), depth=1, word=(), nu=nu)]
    for w, num in points[1:last]:
        out.append(_KeyedPoint("precritical", Fraction(num, scale), len(w) + 1, w, nu))
    out.append(_KeyedPoint("critical-value", Fraction(1), itinerary=nu.seq))

    gaps = []
    if nu.star_periodic:
        for i in range(last):
            k, letters, _ = words.split(points[i][0], points[i + 1][0])
            if k is INF:
                gaps.append(critpath.Gap(out[i].seq, out[i + 1].seq,
                                         words.central(letters)))
    return _KeyedPath(nu=nu, points=out, gaps=gaps)


def _seq_key(s):
    d = s.star_depth()
    return s if d is None else s.letters(d - 1)


def _point_key(pt):
    return pt.word if pt.word is not None else _seq_key(pt.seq)


def _keyed_critical_path(nu, n):
    path = _keyed_pn(nu, n)
    if not nu.star_periodic:
        return path

    by_left = {_seq_key(g.left): g for g in path.gaps}
    points = []
    for cur, nxt in zip(path.points, path.points[1:]):
        points.append(cur)
        g = by_left.get(_point_key(cur))
        if g is not None:
            label = None
            if cur.label is not None and nxt.label is not None:
                label = (cur.label + nxt.label) / 2
            points.append(_KeyedPoint("central", label, itinerary=g.central))
            path.fatou.append(critpath.FatouInterval(g.left, g.central))
            path.fatou.append(critpath.FatouInterval(g.central, g.right))
    points.append(path.points[-1])

    omega = lower_sequence(nu)
    if all(pt.word is not None or pt.seq != omega for pt in points):
        points.insert(len(points) - 1, _KeyedPoint("limit", None, itinerary=omega))
        path.fatou.append(critpath.FatouInterval(omega, nu.seq))

    path.points = points
    return path


def _fmt_label(label):
    if label is None:
        return "-"
    return f"{label.numerator}/{label.denominator}"


def _keyed_path_table(path):
    fatou_ends = {_seq_key(s) for iv in path.fatou for s in (iv.a, iv.b)}
    gap_sides = {_seq_key(s) for g in path.gaps for s in (g.left, g.right)}

    rows = [("#", "kind", "depth", "word", "label", "markers")]
    for i, pt in enumerate(path.points, start=1):
        key = _point_key(pt)
        markers = []
        if pt.kind == "central":
            markers.append("gap-central")
        elif key in gap_sides:
            markers.append("gap-boundary")
        if key in fatou_ends:
            markers.append("fatou")
        if pt.kind == "critical-value":
            word = "-"
        elif pt.depth is not None:
            word = format_key(pt.word, None, pt.nu.degree) if pt.word else "e"
        else:
            word = format_sequence(pt.seq)
        depth = str(pt.depth) if pt.depth is not None else "-"
        rows.append((str(i), pt.kind, depth, word, _fmt_label(pt.label),
                     ",".join(markers)))

    line = "  ".join(f"{{:<{max(map(len, col))}}}" for col in zip(*rows))
    return "".join(line.format(*r).rstrip() + "\n" for r in rows)


def _one_pass_inputs():
    """(kneading sequence, stages) pairs."""
    for kn in star_periodic_sequences(9):
        yield kn, range(1, 11 if kn.period <= 6 else 9)
    rest = list(star_periodic_sequences(6, degree=3))
    for text in ["[|1,5,*]", "[|1,2,*]", "[|1,0,*]", "[|1,3,0,*]", "[|1,-2,4,*]",
                 "[|1,1,2,*]", "[|1,12,11,*]", "[|1,1,1,*]", "[1,7|3,2]", "[1|0]"]:
        rest.append(kneading(text, INF))
    rest += _eventually_periodic(2, 3, 3)
    for bits in itertools.product("01", repeat=6):
        rest.append(validate_kneading(parse_prefix("1" + "".join(bits))))
    for name, params in [("staircase", ""), ("feigenbaum", ""),
                         ("address", "1,2,4"), ("prefix", "110100")]:
        rest += [make(name, depth=d, params=params) for d in (8, 16)]
    for kn in rest:
        yield kn, (1, 3, 6)


def _keyed_points(ref):
    return [(pt.kind, pt.label, pt.depth, pt.word, pt.itinerary) for pt in ref.points]


def test_one_pass_path_matches_key_matching_passes():
    seen = gapped = limited = 0
    for kn, stages in _one_pass_inputs():
        if kn.trivial:
            continue
        for n in stages:
            seen += 1
            path, ref = build_critical_path(kn, n), _keyed_critical_path(kn, n)
            assert _row_points(path) == _keyed_points(ref), (str(kn), n)
            assert path.gaps == ref.gaps, (str(kn), n)
            assert path.fatou == ref.fatou, (str(kn), n)
            assert path_table(path) == _keyed_path_table(ref), (str(kn), n)
            gapped += bool(ref.gaps)
            limited += any(pt.kind == "limit" for pt in ref.points)
    assert (seen, gapped, limited) == (2816, 195, 2300)


# -- the table printed from rows ----------------------------------------------------
#
# build_critical_path keeps each point as a tuple with its label's numerator
# and its word's text; path_table and JSON path print those.  A label is a
# Fraction only where a caller makes one, from CriticalPath.ratio.


def test_labels_print_from_numerators(capsys):
    for s in range(13):
        path = critpath.CriticalPath(kneading("(10*)"), [], 1 << s, [])
        for kind, den in (("precritical", 1 << s), ("central", 2 << s)):
            for num in range(den + 1):
                want = Fraction(num, den)
                p, q = path.ratio(kind, num)
                assert f"{p}/{q}" == f"{want.numerator}/{want.denominator}"
                assert (str(p) if q == 1 else f"{p}/{q}") == str(want)
    assert path.ratio("limit", None) is None

    # every numerator over 2^12, and centrals over 2^n for n = 9, 10, 12
    for text, n in [("(10*)", 13), ("(10010*)", 12), ("(1011*)", 9), ("(1*)", 10)]:
        kn = kneading(text)
        path = build_critical_path(kn, n)
        assert main(["path", "--nu", text, "--depth", str(n), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["points"]
        table = path_table(path).splitlines()[1:]
        assert len(rows) == len(table) == len(path.rows)
        for (_, label, *_), row, line in zip(_row_points(path), rows, table):
            assert row["label"] == (None if label is None else str(label))
            assert line.split()[4] == ("-" if label is None else
                                       f"{label.numerator}/{label.denominator}")


def test_path_table_builds_no_point():
    kns = [kneading(text) for text in ("(10*)", "(10010*)", "(1011*)", "10(011)")]
    kns += [kneading("[|1,12,11,*]", INF), kneading("[1,7|3,2]", INF),
            validate_kneading(parse_prefix("1011011100")), make("feigenbaum", depth=12)]
    for kn in kns:
        path = build_critical_path(kn, 10)
        ref = _keyed_critical_path(kn, 10)
        assert path_table(path) == _keyed_path_table(ref), str(kn)
        assert _row_points(path) == _keyed_points(ref), str(kn)


def test_path_scans_each_tail_once(monkeypatch):
    # the limit point's refinement at nu reads the construction's own tails
    made, scans = [], []

    class Words(critpath._Words):
        def __init__(self, nu):
            super().__init__(nu)
            made.append(self)

    def counting(*args):
        scans.append(args)
        return split(*args)

    split = critpath._split
    monkeypatch.setattr(critpath, "_split", counting)
    monkeypatch.setattr(critpath, "_Words", Words)
    kns = list(star_periodic_sequences(9))
    assert len(kns) == 255
    for kn in kns:
        for build in (build_critical_path, build_pn):
            made.clear()
            scans.clear()
            build(kn, 6)
            assert len(made) == 1, str(kn)
            assert len(scans) == len(made[0].tails), str(kn)


def test_gap_at_nu_has_central_omega():
    # build_critical_path marks points by position; that needs the gap at
    # nu, at any stage, to have omega as its central.  The refinement of
    # the last pair splits (w*nu, nu) from sigma^|w| nu, so it depends on
    # |w| mod p alone and finds the gap within p + 1 steps or never.
    kns = [*star_periodic_sequences(12), *star_periodic_sequences(7, degree=3),
           *star_periodic_sequences(5, degree=4)]
    at_nu = 0
    for kn in kns:
        words = critpath._Words(kn)
        w = ()
        for _ in range(kn.period + 1):
            k, letters, _ = words.split(w, None)
            if k is INF:
                at_nu += 1
                assert words.central(letters) is lower_sequence(kn), str(kn)
                break
            w = letters
    assert (len(kns), at_nu) == (2496, 77)
