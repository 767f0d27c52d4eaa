"""Sequence representation, diff, kneading validation, angles."""

import copy
import math
import pickle
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hubbardtrees.errors import (
    BadLeadingSymbol,
    PeriodicWithoutStar,
    SequenceParseError,
    StarMisplaced,
    WrongDegree,
)
from hubbardtrees.symbolic import (
    EPSeq,
    INF,
    STAR,
    angle_to_kneading,
    diff,
    diff_within,
    format_sequence,
    is_bifurcation,
    kneading,
    parse_prefix,
    parse_sequence,
    precritical,
    validate_kneading,
)


# -- parsing and canonical form ----------------------------------------------


def test_parse_star_periodic():
    s = parse_sequence("(1*)", 2)
    assert s.pre == () and s.per == (1, STAR)


def test_parse_preperiodic():
    s = parse_sequence("1(10)", 2)
    assert s.pre == (1,) and s.per == (1, 0)


def test_parse_primitive_root_reduction():
    assert parse_sequence("(1010)", 2) == parse_sequence("(10)", 2)


def test_parse_bracket_form():
    s = parse_sequence("[1,2|3,-1,*]", INF)
    assert s.pre == (1, 2) and s.per == (3, -1, STAR)


def test_parse_errors():
    with pytest.raises(SequenceParseError):
        parse_sequence("1*(10)", 2)  # wildcard in preperiod
    with pytest.raises(SequenceParseError):
        parse_sequence("(12)", 2)  # letter outside alphabet
    with pytest.raises(SequenceParseError):
        parse_sequence("abc", 2)
    with pytest.raises(SequenceParseError):
        parse_sequence("10", 2)  # bare word needs the prefix form


@pytest.mark.parametrize("pre,per,want_pre,want_per", [
    ((1, 0), (1, 0), (), (1, 0)),
    ((), (1, 1), (), (1,)),
    ((1,), (0, 0), (1,), (0,)),
])
def test_canonicalize(pre, per, want_pre, want_per):
    s = EPSeq(pre, per)
    assert (s.pre, s.per) == (want_pre, want_per)


def test_equality_is_canonical():
    assert EPSeq((1, 0), (1, 0)) == EPSeq((), (1, 0))
    assert EPSeq((), (STAR, 1)) != EPSeq((), (1, STAR))


# -- indexing and shifting ----------------------------------------------------


def test_symbol_at():
    s = parse_sequence("(10*)", 2)
    assert s.at(3) is STAR
    assert s.at(6) is STAR
    assert parse_sequence("1(0)", 2).at(5) == 0


def test_shift():
    assert parse_sequence("(10*)", 2).shift(1) == parse_sequence("(0*1)", 2)
    assert parse_sequence("1(0)", 2).shift(1) == parse_sequence("(0)", 2)
    s = parse_sequence("11(010)", 2)
    assert s.shift(0) == s


# -- diff -----------------------------------------------------------------------


def test_diff_self_is_infinite():
    s = parse_sequence("(1011*)", 2)
    assert diff(s, s) is INF


def test_diff_nu_starnu_basilica():
    # the gap between nu and *nu exists precisely because no finite
    # difference ever occurs
    nu = kneading("(1*)")
    assert diff(nu.seq, nu.critical_point()) is INF


def test_diff_first_position():
    assert diff(parse_sequence("(10*)", 2), parse_sequence("(0*1)", 2)) == 1


def test_diff_degree_mismatch():
    a, b = parse_sequence("(10)", 2), parse_sequence("(10)", 3)
    for x, y in ((a, b), (a, parse_prefix("10", 3)), (parse_prefix("10", 2), b)):
        with pytest.raises(WrongDegree):
            diff(x, y)
        with pytest.raises(WrongDegree):
            diff_within(x, y)


# -- kneading validation ---------------------------------------------------------


def test_validate_period4():
    k = kneading("(101*)")
    assert k.star_periodic and k.period == 4


def test_validate_star_first_rejected_not_rotated():
    with pytest.raises(StarMisplaced):
        validate_kneading(parse_sequence("(*1)", 2))


def test_validate_bad_leading():
    with pytest.raises(BadLeadingSymbol):
        validate_kneading(parse_sequence("0(1)", 2))


def test_validate_periodic_without_star():
    with pytest.raises(PeriodicWithoutStar):
        validate_kneading(parse_sequence("(101)", 2))


def test_validate_trivial():
    k = validate_kneading(parse_sequence("(*)", 2))
    assert k.trivial and k.star_periodic and k.period == 1


def test_validate_prefix():
    k = validate_kneading(parse_prefix("110100", 2))
    assert not k.star_periodic and not k.exact


# -- precritical points -----------------------------------------------------------


def test_precritical_depths():
    nu = kneading("(101*)")
    p0 = precritical((), nu)
    assert p0.star_depth() == 1
    p1 = precritical((1,), nu)
    assert p1.star_depth() == 2
    assert p1 == nu.seq.shift(2)  # sigma^2(nu) = 1*nu for this sequence
    assert precritical((1, 1), nu).star_depth() == 3


# -- bifurcations --------------------------------------------------------------------


def test_bifurcation_period4():
    b = is_bifurcation(kneading("(101*)"))
    assert (b.q, b.letter) == (2, 0)
    assert str(b.base) == "(1*)"


def test_bifurcation_none():
    assert is_bifurcation(kneading("(10*)")) is None


def test_bifurcation_nonstandard_case():
    b = is_bifurcation(kneading("(10110*)"))
    assert (b.q, b.letter) == (3, 1)
    assert str(b.base) == "(10*)"


def test_bifurcation_unique_q():
    # scanning all divisors can never produce a second candidate
    import itertools

    for p in range(2, 9):
        for bits in itertools.product([0, 1], repeat=p - 2):
            word = (1,) + bits + (STAR,)
            kn = validate_kneading(EPSeq((), word, 2))
            hits = []
            for q in range(1, p):
                if p % q:
                    continue
                if any(word[i] != word[i % q] for i in range(p - 1)):
                    continue
                block = word[:q]
                if EPSeq((), block, 2).per == block:
                    hits.append(q)
            assert len(hits) <= 1
            b = is_bifurcation(kn)
            assert (b.q if b else None) == (hits[0] if hits else None)
            if b is not None:
                # the word really repeats its first q entries up to p-1
                assert all(word[i] == word[i % b.q] for i in range(p - 1))


# -- angles ------------------------------------------------------------------------


def _angle_oracle(theta, degree):
    """Brute-force itinerary of theta under t -> d t mod 1, independent of
    the library implementation: explicit cut points, explicit arc walk."""
    theta = Fraction(theta)
    cuts = sorted((theta + j) / degree for j in range(degree))
    orbit, seen = [], {}
    t = theta
    while t not in seen:
        seen[t] = len(orbit)
        orbit.append(t)
        t = t * degree - int(t * degree)
    pre = seen[t]

    def label(t):
        if t in cuts:
            return "*"
        idx = sum(1 for c in cuts if c <= t) - 1
        if idx < 0:
            idx = degree - 1
        theta_idx = sum(1 for c in cuts if c <= theta) - 1
        r = (idx - theta_idx) % degree
        return "1" if r == 0 else ("0" if r == 1 else str(r))

    def star_or_label(k):
        nxt = orbit[k + 1] if k + 1 < len(orbit) else orbit[pre]
        return "*" if nxt == theta else label(orbit[k])

    sym = [star_or_label(k) for k in range(len(orbit))]
    return "".join(sym[:pre]) + "(" + "".join(sym[pre:]) + ")"


@pytest.mark.parametrize("theta,degree,expect", [
    (Fraction(1, 3), 2, "(1*)"),
    (Fraction(1, 7), 2, "(11*)"),
    (Fraction(1, 5), 2, "(110*)"),
    (Fraction(3, 15), 2, "(110*)"),
    (Fraction(1, 6), 2, "1(10)"),
    (Fraction(5, 12), 3, None),
    (Fraction(3, 26), 3, None),
])
def test_angle_against_oracle(theta, degree, expect):
    got = angle_to_kneading(theta, degree)
    oracle = validate_kneading(parse_sequence(_angle_oracle(theta, degree), degree))
    assert got.seq == oracle.seq
    if expect is not None:
        assert str(got) == expect


def _sweep_angles(degree, nmax):
    """k/(d^n - 1) for n <= nmax and k/(d(d^n - 1)) for n <= 3."""
    dens = [degree ** n - 1 for n in range(1, nmax + 1)]
    dens += [degree * (degree ** n - 1) for n in range(1, 4)]
    return sorted({Fraction(k, den) for den in dens for k in range(den)})


@pytest.mark.parametrize("degree,nmax", [(2, 6), (3, 4)])
def test_angle_sweep_against_oracle(degree, nmax):
    for theta in _sweep_angles(degree, nmax):
        oracle = parse_sequence(_angle_oracle(theta, degree), degree)
        assert angle_to_kneading(theta, degree).seq == oracle, theta


def _mirror(sym, degree):
    # counter-clockwise from the arc of theta the labels read 1, 0, 2, ..,
    # d-1; conjugation reverses the circle, so the arc r steps on is read
    # r steps back: the identity for d = 2, a swap of 0 and 2 for d = 3
    if sym is STAR:
        return STAR
    ccw = [1, 0] + list(range(2, degree))
    return ccw[-ccw.index(sym) % degree]


@pytest.mark.parametrize("degree,maxden", [(2, 24), (3, 16), (4, 12)])
def test_angle_conjugation_mirrors_labels(degree, maxden):
    for den in range(2, maxden + 1):
        for k in range(1, den):
            theta = Fraction(k, den)
            s = angle_to_kneading(theta, degree).seq
            mirrored = EPSeq([_mirror(x, degree) for x in s.pre],
                             [_mirror(x, degree) for x in s.per], degree)
            assert angle_to_kneading(1 - theta, degree).seq == mirrored, theta


def test_angle_zero_is_trivial():
    assert angle_to_kneading(Fraction(0), 2).trivial


def test_angle_periodic_gives_star_periodic():
    # periodic angles under doubling (odd denominator) give star-periodic
    # kneading sequences of dividing period
    for den in (3, 5, 7, 9, 11, 15):
        for num in range(1, den):
            th = Fraction(num, den)
            n = 1
            t = (2 * th) % 1
            while t != th:
                t = (2 * t) % 1
                n += 1
            kn = angle_to_kneading(th, 2)
            assert kn.star_periodic
            assert n % kn.period == 0


def test_angle_requires_finite_degree():
    with pytest.raises(WrongDegree):
        angle_to_kneading(Fraction(1, 3), INF)


# -- property tests ------------------------------------------------------------------


def seqs(degree=2, with_star=False):
    sym = st.integers(min_value=0, max_value=degree - 1)
    if with_star:
        sym = st.one_of(sym, st.just(STAR))
    return st.builds(
        EPSeq,
        st.lists(sym, max_size=6),
        st.lists(sym, min_size=1, max_size=6),
        st.just(degree),
    )


@given(seqs(with_star=True))
def test_canonical_idempotent_and_preserves_symbols(s):
    again = EPSeq(s.pre, s.per, s.degree)
    assert again is s  # interned canonical form
    raw_pre = s.pre + s.per * 3
    for i, sym in enumerate(raw_pre, start=1):
        assert s.at(i) is sym or s.at(i) == sym


@given(seqs(with_star=True), st.integers(0, 50), st.integers(0, 50))
def test_shift_composes(s, j, k):
    assert s.shift(j).shift(k) == s.shift(j + k)


@given(seqs(with_star=True), seqs(with_star=True))
@settings(max_examples=200)
def test_diff_symmetric(a, b):
    assert diff(a, b) == diff(b, a)


@given(seqs(with_star=True), seqs(with_star=True))
@settings(max_examples=200)
def test_diff_shift_inequality(a, b):
    d = diff(a, b)
    if d is not INF and d >= 2:
        assert diff(a.shift(1), b.shift(1)) >= d - 1


@given(st.builds(
    EPSeq,
    st.lists(st.integers(0, 1), max_size=6),
    st.lists(st.one_of(st.integers(0, 1), st.just(STAR)), min_size=1, max_size=6),
    st.just(2),
))
def test_format_parse_round_trip(s):
    # the user grammar forbids a wildcard in the preperiod, so only
    # sequences whose canonical preperiod is wildcard-free round-trip
    if any(x is STAR for x in s.pre):
        with pytest.raises(SequenceParseError):
            parse_sequence(format_sequence(s), 2)
    else:
        assert parse_sequence(format_sequence(s), 2) == s


def test_prefix_round_trip():
    p = parse_prefix("110100100", 2)
    assert p.pre == (1, 1, 0, 1, 0, 0, 1, 0, 0)
    assert len(p.pre) == 9
    assert p.shift(2).pre == (0, 1, 0, 0, 1, 0, 0)


def test_a_truncation_is_its_own_value():
    # EPSeq(word, None, d) keeps its letters as given and never equals an
    # exact sequence; a missing period is an error, not a truncation
    assert EPSeq((1, 1), None, 2).pre == (1, 1)
    assert EPSeq((1, 1), (1,), 2).pre == ()
    for text in ("(10)", "1(0)", "10(01)"):
        exact = parse_sequence(text, 2)
        trunc = EPSeq(exact.pre + exact.per, None, 2)
        assert trunc is not exact and trunc != exact and exact != trunc
        assert exact.exact and not trunc.exact
    with pytest.raises(SequenceParseError):
        EPSeq((1, 0))


def test_prefix_sequences_are_interned():
    p = EPSeq([1, 0, 1, 1], None, 2)
    assert EPSeq((1, 0, 1, 1), None, 2) is p
    assert p.tail() is p.tail() is EPSeq((0, 1, 1), None, 2)
    assert p.shift(4) is EPSeq((), None, 2) is EPSeq((), None, 2).tail()
    assert EPSeq((1, 0, 1, 1), None, 3) is not p


def test_copies_and_pickles_keep_interning():
    # a copy must not be rebuilt through an argument-free __new__, which
    # would hand back (and then overwrite) an interned value
    for s in (EPSeq((1, 0, 1, 1), None, 2), EPSeq((), None, 3),
              EPSeq((1,), (0, 1), 2), EPSeq((), (STAR, 2, 0), 3)):
        assert copy.copy(s) is s
        assert copy.deepcopy(s) is s
        assert pickle.loads(pickle.dumps(s)) is s
    assert EPSeq((), None, 2).pre == ()


def test_interning_is_atomic_under_threads():
    # sequences no other test builds: degree 9, a 14-letter preperiod
    keys = [(tuple(8 - int(b) for b in f"{i:014b}"), (7, 5))
            for i in range(3000)]
    assert not any(EPSeq._intern.get((pre, per, 9)) for pre, per in keys)
    workers = 4
    barrier = threading.Barrier(workers, timeout=30)
    got = [None] * workers

    def build(slot):
        barrier.wait()
        got[slot] = [EPSeq(pre, per, 9) for pre, per in keys]

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert all(g is not None for g in got)
    for j, (pre, per) in enumerate(keys):
        first = got[0][j]
        assert all(g[j] is first for g in got[1:])
        assert EPSeq(pre, per, 9) is first
