"""Tree assembly, the meet oracle, Markov data, exports."""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hubbardtrees import symbolic, treebuild
from hubbardtrees.critpath import build_pn, lower_sequence
from hubbardtrees.errors import MeetInconsistency, TruncatedTree
from hubbardtrees.export import (
    _meta,
    _nodes_edges,
    tree_to_dot,
    tree_to_json,
    tree_to_svg,
    tree_to_text,
)
from hubbardtrees.generators import make, staircase
from hubbardtrees.symbolic import (
    EPSeq,
    INF,
    STAR,
    angle_to_kneading,
    diff,
    format_sequence,
    kneading,
    parse_prefix,
    parse_sequence,
    precritical,
    seq_cmp,
    validate_kneading,
)
from hubbardtrees.treebuild import (
    HubbardTree,
    _known,
    _prepend,
    build_tree,
    markov_data,
    meet,
    same_point,
    sigma_closure,
    vertex_order,
)

from conftest import path_points, star_periodic_sequences

fs = format_sequence


# -- meet ----------------------------------------------------------------------


def test_meet_degenerate():
    kn = kneading("(10*)")
    a, b = kn.seq, kn.seq.shift(1)
    assert meet(a, b, b, kn) == b
    assert meet(a, a, b, kn) == a


def test_meet_three_distinct_letters_is_critical_point():
    kn = kneading("(12*)", degree=3)
    a = kn.seq                      # starts 1
    b = kn.seq.shift(1)             # starts 2
    c = EPSeq((0,), kn.seq.per, 3)  # starts 0
    assert meet(a, b, c, kn) == kn.critical_point()


def test_meet_evil_branch_point():
    kn = kneading("(10110*)")
    m = meet(kn.seq, kn.seq.shift(3), kn.critical_point(), kn)
    assert m == EPSeq((), (1, 0, 1))


def test_meet_symmetric():
    rng = random.Random(7)
    kn = kneading("(1001*)")
    pool = [s for *_, s in path_points(build_pn(kn, 5))]
    pool += [lower_sequence(kn)]
    for _ in range(40):
        x, y, z = rng.sample(pool, 3)
        results = {meet(*perm, kn) for perm in itertools.permutations((x, y, z))}
        assert len(results) == 1


def test_meet_matches_path_order_scan():
    # on the critical path the tripod meet is the middle point in path order
    for text in ["(10*)", "1(0)"]:
        kn = kneading(text)
        pts = [(label, s) for _, label, s in path_points(build_pn(kn, 6))]
        rng = random.Random(3)
        for _ in range(300):
            (la, a), (lb, b), (lc, c) = rng.sample(pts, 3)
            middle = sorted([(la, a), (lb, b), (lc, c)])[1][1]
            assert meet(a, b, c, kn) == middle


def test_meet_of_star_side_points_is_starnu_for_critical_anchor():
    kn = kneading("(10*)")
    pts = [s for *_, s in path_points(build_pn(kn, 8))]
    for x in pts:
        assert meet(kn.critical_point(), x, kn.seq, kn) == x


# -- the exact meet kernel against the walk it replaced ------------------------
#
# The walk below is the exact tripod meet as it was before recurrences were
# recorded at wildcard steps only: it records every state, flags included,
# from step maxpre + 2 lcm + 8 on.  It is copied verbatim apart from its name
# and the line that counts how many walks end by recurrence.


def _critical_point(nu):
    return nu.critical_point()


RECURRENCES = [0]


def _reference_meet_exact(a, b, c, nu):
    # EPSeq values are interned, so identity is equality throughout
    nu_seq = nu.seq
    degree = a.degree
    lcm = math.lcm(len(a.per), len(b.per), len(c.per), len(nu_seq.per))
    maxpre = max(len(a.pre), len(b.pre), len(c.pre), len(nu_seq.pre)) + 1
    # states recur within one cycle once recording starts; canonical-form
    # absorption makes a late start harmless
    record_after = maxpre + 2 * lcm + 8
    budget = (maxpre + lcm) * 8 + 64

    w: list = []
    seen = None
    flags = 0
    steps = 0
    crit = _critical_point(nu)
    while True:
        if a is b or a is c:
            return _prepend(w, a)
        if b is c:
            return _prepend(w, b)
        steps += 1
        if seen is not None:
            key = (a, b, c, flags)
            prev = seen.get(key)
            if prev is not None:
                RECURRENCES[0] += 1  # the one added line
                return EPSeq(tuple(w[:prev]), tuple(w[prev:]), degree)
            seen[key] = len(w)
        elif steps > record_after:
            seen = {}
        if steps > budget:
            raise MeetInconsistency(
                f"tripod recursion failed to settle within {budget} steps"
            )

        ha, hb, hc = a.head, b.head, c.head
        if ha is STAR or hb is STAR or hc is STAR:
            # at most one slot sits at the critical point (two would be equal)
            if ha is STAR:
                x, y, bit = hb, hc, 1
            elif hb is STAR:
                x, y, bit = ha, hc, 2
            else:
                x, y, bit = ha, hb, 4
            if x != y:
                # the critical point itself separates the other two
                return EPSeq(tuple(w) + (STAR,) + nu_seq.pre, nu_seq.per, degree)
            w.append(x)
            flags |= bit
            a, b, c = a.tail(), b.tail(), c.tail()
            continue
        if ha == hb:
            if hb == hc:
                w.append(ha)
                a, b, c = a.tail(), b.tail(), c.tail()
            else:
                c = crit
            continue
        if ha == hc:
            b = crit
            continue
        if hb == hc:
            a = crit
            continue
        return EPSeq(tuple(w) + (STAR,) + nu_seq.pre, nu_seq.per, degree)


def _kernel_corpus():
    kns = list(star_periodic_sequences(7))
    angles = {angle_to_kneading(Fraction(k, 3 ** n - 1), 3)
              for n in (1, 2, 3) for k in range(3 ** n - 1)}
    kns += sorted((kn for kn in angles if not kn.trivial), key=str)
    kns += [kneading(text, INF) for text in
            ("[|1,2,*]", "[|1,-2,1,*]", "[|1,0,2,*]", "[|1,2,3,*]", "[1,2|3]")]
    kns.append(kneading("1(10)"))
    return kns


def test_meet_kernel_matches_reference_walk():
    RECURRENCES[0] = 0
    tripods = 0
    for kn in _kernel_corpus():
        vs = sigma_closure(build_tree(kn)).vertices()
        for a, b, c in itertools.combinations(vs, 3):
            assert meet(a, b, c, kn) is _reference_meet_exact(a, b, c, kn), \
                (str(kn), fs(a), fs(b), fs(c))
            tripods += 1
    # criterion 11's walks never end by recurrence; 77% of these do
    assert tripods > 20000
    assert RECURRENCES[0] / tripods > 0.7


# -- the one walk on truncated input against the walk it replaced -------------
#
# The walk below is the truncated tripod meet as it was before the exact and
# truncated walks were folded into one: it compares points with ==, records
# every state and keys states on flags.  It is copied verbatim apart from
# its name.


def _reference_meet_trunc(a, b, c, nu):
    budget = max(_known(s) for s in (a, b, c)) * 4 + 8
    crit = nu.critical_point()
    w: list = []
    seen: dict = {}
    flags = (False, False, False)
    steps = 0
    while True:
        steps += 1
        if steps > budget:
            return EPSeq(tuple(w), None, a.degree)

        if a == b or a == c:
            return _prepend(w, a)
        if b == c:
            return _prepend(w, b)

        key = (a, b, c, flags)
        prev = seen.get(key)
        if prev is not None:
            return EPSeq(tuple(w[:prev]), tuple(w[prev:]), a.degree)
        seen[key] = len(w)

        ha, hb, hc = a.head, b.head, c.head
        if ha is None or hb is None or hc is None:
            return EPSeq(tuple(w), None, a.degree)  # out of trusted symbols

        stars = (ha is STAR) + (hb is STAR) + (hc is STAR)
        if stars >= 2:
            # two slots sit at the critical point: degenerate tripod
            # (distinct objects arise only under truncation)
            return _prepend(w, a if ha is STAR else b)
        if stars == 1:
            letters = [h for h in (ha, hb, hc) if h is not STAR]
            if letters[0] != letters[1]:
                return precritical(tuple(w), nu)
            w.append(letters[0])
            flags = tuple(f or (h is STAR)
                          for f, h in zip(flags, (ha, hb, hc)))
            a, b, c = a.tail(), b.tail(), c.tail()
            continue

        if ha == hb == hc:
            w.append(ha)
            a, b, c = a.tail(), b.tail(), c.tail()
            continue
        if ha == hb or ha == hc or hb == hc:
            if ha == hb:
                c = crit
            elif ha == hc:
                b = crit
            else:
                a = crit
            continue
        return precritical(tuple(w), nu)


def _truncated_corpus():
    """Every ten-letter prefix word, and the generators at depths 2-24."""
    kns = [validate_kneading(parse_prefix("1" + "".join(bits)))
           for bits in itertools.product("01", repeat=9)]
    kns += [make(name, depth=d) for name in ("staircase", "feigenbaum")
            for d in range(2, 25)]
    return kns


def test_meet_on_truncated_trees_matches_reference_walk():
    equal = extended = 0
    for kn in _truncated_corpus():
        for a, b, c in itertools.combinations(build_tree(kn).vertices(), 3):
            got, ref = meet(a, b, c, kn), _reference_meet_trunc(a, b, c, kn)
            if got == ref:
                equal += 1
                continue
            # where the reference ran out of budget, the recorded states
            # catch the recurrence and give the periodic point it truncates
            assert got.exact and not ref.exact, (str(kn), fs(a), fs(b), fs(c))
            n = len(ref.pre)
            assert tuple(got.at(i) for i in range(1, n + 1)) == ref.pre
            extended += 1
    assert equal > 60000
    assert extended > 300


def test_meet_truncated_exits():
    kn = validate_kneading(parse_prefix("1011011100"))
    crit, nu = kn.critical_point(), kn.seq
    short_crit = EPSeq((STAR, 1, 0, 1), None, 2)
    # two truncations of the critical point: a degenerate tripod
    assert meet(crit, short_crit, nu, kn) is crit
    assert meet(short_crit, nu, crit, kn) is short_crit
    # a point out of symbols: the prefix emitted so far
    assert meet(nu, EPSeq((1,), None, 2), crit, kn) is EPSeq((1,), None, 2)
    for args in ((crit, short_crit, nu), (nu, EPSeq((1,), None, 2), crit)):
        assert meet(*args, kn) is _reference_meet_trunc(*args, kn)


def test_meet_does_not_depend_on_how_a_point_is_given():
    # an exact point and a long truncation of it span the same tripod; the
    # walk's budget must leave room for the exact point's period
    kn = validate_kneading(parse_prefix("1011011100"))
    a, b = parse_prefix("11100"), parse_sequence("(1011101)")
    c, long_c = parse_sequence("(1101110)"), parse_prefix("1101110" * 4)
    assert meet(a, b, c, kn) is meet(a, b, long_c, kn) is parse_sequence("(1110110)")


def test_same_point_identifies_a_truncation_with_its_extensions():
    p = parse_sequence("(110)")
    for word, same in (("11011", True), ("", True), ("11010", False)):
        q = EPSeq([int(x) for x in word], None, 2)
        assert same_point(p, q) is same_point(q, p) is same, word
    crit = EPSeq((STAR,), (1, 0), 2)
    assert same_point(crit, EPSeq((STAR, 1, 0, 1), None, 2))
    assert not same_point(crit, EPSeq((1, 1, 0, 1), None, 2))
    assert not same_point(p, parse_sequence("(011)"))


def _reference_seq_cmp(a, b):
    """seq_cmp as a per-index loop with its own truncation bound."""
    def key(x):
        return (1, 0) if x is STAR else (0, x)

    if a is b:
        return 0
    if a.exact and b.exact:
        bound = max(len(a.pre), len(b.pre)) + math.lcm(len(a.per), len(b.per))
    else:
        wa = len(a.pre) + len(a.per or ())
        wb = len(b.pre) + len(b.per or ())
        bound = max(wa, wb) * 2 + 2
    for i in range(1, bound + 1):
        x, y = a.at(i), b.at(i)
        if x is None or y is None:
            if x is None and y is None:
                break
            return -1 if x is None else 1
        if key(x) != key(y):
            return -1 if key(x) < key(y) else 1
    return 0


def _reference_same_point(x, y):
    """same_point reading one symbol at a time."""
    if x is y:
        return True
    if x.exact:
        if y.exact:
            return False
        x, y = y, x
    if y.exact:
        return all(y.at(i) == s for i, s in enumerate(x.pre, 1))
    n = min(len(x.pre), len(y.pre))
    return x.pre[:n] == y.pre[:n]


def _comparison_points(degree, words):
    """Vertices of the prefix trees of some words, with and without the
    wildcard, plus the exact trees' vertices of the star words."""
    points = set()
    for word in words:
        points.update(build_tree(validate_kneading(EPSeq(word, None, degree))).vertices())
    for kn in star_periodic_sequences(5, degree=degree):
        points.update(build_tree(kn).vertices())
    return sorted(points, key=fs)


@pytest.mark.parametrize("degree,words", [
    (2, [(1,) + bits for bits in itertools.product((0, 1), repeat=8)][::3]),
    (3, [(1,) + bits for bits in itertools.product((0, 1, 2), repeat=6)][::17]),
])
def test_seq_cmp_and_same_point_match_reference_loops(degree, words):
    points = _comparison_points(degree, words)
    assert any(not p.exact and p.contains_star() for p in points)
    rng = random.Random(degree)
    pairs = [tuple(rng.sample(points, 2)) for _ in range(10_000)]
    # each point next to its first three letters, a truncation it extends
    pairs += [(p, EPSeq([x for x in map(p.at, (1, 2, 3)) if x is not None],
                        None, degree)) for p in points]
    for a, b in pairs:
        assert seq_cmp(a, b) == _reference_seq_cmp(a, b), (fs(a), fs(b))
        assert same_point(a, b) is _reference_same_point(a, b), (fs(a), fs(b))


def _one_point(x, y):
    """Whether x and y agree on every letter a truncation certifies."""
    if x.exact and y.exact:
        return x == y
    n = min(len(s.pre) for s in (x, y) if not s.exact)
    return all(x.at(i) == y.at(i) for i in range(1, n + 1))


def test_truncated_trees_hold_each_point_once():
    for kn in _truncated_corpus():
        for x, y in itertools.combinations(build_tree(kn).vertices(), 2):
            assert not _one_point(x, y), (str(kn), fs(x), fs(y))
            assert not same_point(x, y)


@pytest.mark.parametrize("word,vertices", [
    ("1001011000", "1001011000 (101100) 1011000 (110010) 11000 "
     "[*,1,0,0,1,0,1,1,0,0,0] (010110) 01011000 (011001) 001011000 011000"),
    ("1011011100", "1011011100 (1011101) 1011100 (1110110) (1101110) 11100 "
     "11011100 [*,1,0,1,1,0,1,1,1,0,0] (0111011) 011011100 011100"),
    ("1011110100", "1011110100 (1010111) 10100 (1110101) 1110100 (1111010) "
     "(1101011) 11110100 110100 [*,1,0,1,1,1,1,0,1,0,0] 011110100"),
])
def test_truncated_tree_names_the_periodic_point_it_meets(word, vertices):
    # the walk that ran out of budget named one vertex by a long prefix of
    # the periodic point given here; every other vertex is as it was
    tree = build_tree(validate_kneading(parse_prefix(word)))
    order = vertex_order(tree)
    assert [format_sequence(v) for v in sorted(order, key=order.get)] == vertices.split()


# The insertion walk as it was while a truncated point was first tested
# against every vertex.  It is copied verbatim apart from its name.


def _reference_walk(self, p: EPSeq):
    if p.exact and self.nu.exact:
        # a tree over an exact sequence holds exact points only
        if p in self.adj:
            return ("existing", p)
    else:
        for v in self.adj:
            if same_point(p, v):
                return ("existing", v)
    cur = self.nu
    prev = None
    cap = 4 * len(self.adj) + 8
    for _ in range(cap):
        advanced = False
        for u in self.adj[cur]:
            if u is prev:
                continue
            m = meet(p, cur, u, self.kneading)
            if same_point(m, cur):
                continue
            if same_point(m, u):
                prev, cur = cur, u
                advanced = True
                break
            if same_point(m, p):
                return ("interior", (cur, u))
            return ("branch", (cur, u, m))
        if not advanced:
            return ("at", cur)
    raise MeetInconsistency("insertion walk failed to terminate")


def _walk_corpus():
    """The truncated corpus, plus 100 seeded prefixes for each of the
    degrees 3, 4 and inf: a short block repeated to 8-24 letters with one
    letter changed, so that many orbit points share long prefixes."""
    rng = random.Random(20)
    kns = _truncated_corpus()
    for degree, letters in ((3, range(3)), (4, range(4)), (INF, range(6))):
        for _ in range(100):
            block = [1] + rng.choices(letters, k=rng.randint(1, 5))
            word = (block * 12)[:rng.randint(8, 24)]
            word[rng.randrange(1, len(word))] = rng.choice(letters)
            kns.append(validate_kneading(EPSeq(word, None, degree)))
    return kns


def test_walk_stops_at_the_vertex_the_scan_finds(monkeypatch):
    # every walk also runs the scanning reference on the same tree; they
    # may differ only where p is one point with two vertices (a tie)
    walk = HubbardTree._walk
    found = ties = 0

    def checked(tree, p):
        nonlocal found, ties
        got, ref = walk(tree, p), _reference_walk(tree, p)
        if got != ref:
            assert got[0] == ref[0] == "existing", (str(tree.kneading), fs(p))
            assert same_point(p, got[1]) and same_point(p, ref[1])
            ties += 1
        elif got[0] == "existing" and got[1] is not p:
            found += 1
        return got

    monkeypatch.setattr(HubbardTree, "_walk", checked)
    for kn in _walk_corpus():
        build_tree(kn)
    assert found > 500
    # the one tie: in the tree of 1001000100, 00100 is both 001000100 (the
    # scan's) and (001) (the walk's)
    assert ties == 1


def test_walk_tests_identity_at_most_three_times_per_meet(monkeypatch):
    # each walk step makes one meet and up to three identity tests, and a
    # walk makes one more where it stops; a scan over the vertices before
    # each truncated walk made 182,586 tests at depth 800
    calls = {"meet": 0, "same_point": 0, "walk": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(treebuild, "meet", counted("meet", meet))
    monkeypatch.setattr(treebuild, "same_point", counted("same_point", same_point))
    monkeypatch.setattr(HubbardTree, "_walk", counted("walk", HubbardTree._walk))
    build_tree(make("staircase", depth=400), 400, max_points=400)
    assert calls["walk"] >= 200
    assert calls["same_point"] <= 3 * calls["meet"] + calls["walk"], calls


def _same_walk(got, ref):
    """Walk answers agree; an edge may come in the other orientation."""
    if got[0] != ref[0]:
        return False
    if got[0] == "interior":
        return set(got[1]) == set(ref[1])
    if got[0] == "branch":
        return set(got[1][:2]) == set(ref[1][:2]) and got[1][2] is ref[1][2]
    return got[1] is ref[1]


def test_exact_walks_from_the_critical_point_match_the_walk_from_nu(monkeypatch):
    # an exact walk starts at *nu, the reference at nu; both must find the
    # one place of each interned point, in building and in closing trees
    walk = HubbardTree._walk
    walks = flipped = 0

    def checked(tree, p):
        nonlocal walks, flipped
        got, ref = walk(tree, p), _reference_walk(tree, p)
        assert _same_walk(got, ref), (str(tree.kneading), fs(p), got, ref)
        walks += 1
        flipped += got != ref
        return got

    monkeypatch.setattr(HubbardTree, "_walk", checked)
    for kn in _kernel_corpus() + list(star_periodic_sequences(9)):
        sigma_closure(build_tree(kn))
    assert walks > 4000
    assert flipped > 1000  # the orientations do differ, so both are compared


def test_star_word_trees_count_their_meets_and_canonicalisations(monkeypatch):
    # exact walks start at *nu, where a wrong direction costs a one-step
    # meet, and a recurrence returns the input it repeats instead of
    # canonicalising a new key: 34,974 meets and 25,155 canonicalisations
    # before either, 25,407 and 2,274 with both
    calls = {"meet": 0, "_canonical": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(treebuild, "meet", counted("meet", meet))
    monkeypatch.setattr(symbolic, "_canonical",
                        counted("_canonical", symbolic._canonical))
    kns = list(star_periodic_sequences(10))
    for kn in kns:
        build_tree(kn)
    assert len(kns) == 511
    assert calls["meet"] <= 26000 and calls["_canonical"] <= 3000, calls


# -- sigma closure and the kept lower sequence ---------------------------------


def test_closing_a_closed_tree_returns_it():
    for kn in _kernel_corpus():
        tree = build_tree(kn)
        assert tree.finite
        assert sigma_closure(tree) is tree, str(kn)


def test_closure_copies_an_open_tree_and_leaves_it_untouched():
    tree = build_tree(kneading("10(01101)"))
    before = {v: list(nbrs) for v, nbrs in tree.adj.items()}
    closed = sigma_closure(tree)
    assert closed is not tree
    assert len(tree.adj) == 4 and tree.adj == before
    assert len(closed.adj) == 8
    assert all(v.tail() in closed.adj for v in closed.adj)
    assert sigma_closure(closed) is closed


def test_tree_keeps_its_lower_sequence():
    for kn in star_periodic_sequences(7):
        tree = build_tree(kn)
        assert tree.omega == lower_sequence(kn)
        assert sigma_closure(tree.copy()).omega is tree.omega
        assert build_tree(kn, kn.period - 2).omega is None
    for text in ("1(10)", "10(01101)"):
        assert build_tree(kneading(text)).omega is None
    assert build_tree(make("staircase", depth=12)).omega is None


# -- insertion -----------------------------------------------------------------


def test_insert_existing_is_idempotent():
    kn = kneading("(10*)")
    t = build_tree(kn)
    before = sorted(map(fs, t.vertices()))
    for v in list(t.vertices()):
        _, how = t.insert_point(v)
        assert how == "existing"
    assert sorted(map(fs, t.vertices())) == before


def test_insert_pendant():
    kn = kneading("1(0)")
    t = HubbardTree(kn)
    v, how = t.insert_point(kn.seq.shift(1))
    assert how == "pendant"
    assert t.degree_of(v) == 1


def test_insert_interior_creates_branch_vertex():
    kn = kneading("(10110*)")
    t = HubbardTree(kn)
    t.insert_point(kn.seq.shift(3))
    assert EPSeq((), (1, 0, 1)) in t.adj
    assert t.degree_of(EPSeq((), (1, 0, 1))) == 3


# -- whole trees ------------------------------------------------------------------


def test_basilica_tree():
    t = build_tree(kneading("(1*)"))
    assert len(t.vertices()) == 3
    edges = t.edges()
    assert len(edges) == 2
    assert all(t.is_fatou_edge(u, v) for u, v in edges)


def test_rabbit_tree_is_star():
    t = build_tree(kneading("(11*)"))
    alpha = EPSeq((), (1,))
    assert t.degree_of(alpha) == 3
    assert sorted(t.degree_of(v) for v in t.vertices()) == [1, 1, 1, 3]


def test_chebyshev_tree_finite_at_two():
    kn = kneading("1(0)")
    t = build_tree(kn)
    assert t.finite
    assert sorted(map(fs, t.vertices())) == ["(0)", "*1(0)", "1(0)"]
    assert [fs(v) for v in t.path_between(kn.seq, kn.seq.shift(1))] == \
        ["1(0)", "*1(0)", "(0)"]


def test_airplane_tree_is_interval():
    t = build_tree(kneading("(10*)"))
    assert len(t.vertices()) == 6
    assert all(t.degree_of(v) <= 2 for v in t.vertices())
    assert sorted(map(fs, t.endpoints())) == ["(0*1)", "(10*)"]


def test_path_between_examples():
    kn = kneading("(1*)")
    t = build_tree(kn)
    assert [fs(v) for v in t.path_between(kn.seq, kn.critical_point())] == \
        ["(1*)", "(1)", "(*1)"]
    assert t.path_between(kn.seq, kn.seq) == [kn.seq]

    kn5 = kneading("(10110*)")
    t5 = build_tree(kn5)
    assert [fs(v) for v in t5.path_between(kn5.seq, kn5.seq.shift(3))] == \
        ["(10110*)", "(101)", "(10*101)"]


def test_diff_monotone_along_paths():
    for text in ["(10110*)", "(1001*)", "1(0110)"]:
        kn = kneading(text)
        t = sigma_closure(build_tree(kn))
        vs = t.vertices()
        for a in vs:
            for b in vs:
                if a == b:
                    continue
                d = diff(a, b)
                for c in t.path_between(a, b)[1:-1]:
                    dc = diff(a, c)
                    assert dc is INF or dc >= d


def test_tree_edge_count_and_nu_endpoint():
    for text in ["(1*)", "(11*)", "(10*)", "(101*)", "(10110*)", "1(0)",
                 "1(10)", "11(0110)"]:
        kn = kneading(text)
        t = build_tree(kn)
        assert len(t.edges()) == len(t.vertices()) - 1
        assert t.degree_of(kn.seq) == 1, text


def test_sigma_edge_injectivity_first_letters():
    # vertices of an edge away from the critical point share their first letter
    for text in ["(10*)", "(10110*)", "1(0)", "(1001*)"]:
        kn = kneading(text)
        t = sigma_closure(build_tree(kn))
        for u, v in t.edges():
            if u == t.crit or v == t.crit:
                continue
            hu, hv = u.head, v.head
            assert STAR not in (hu, hv)
            assert hu == hv, (text, fs(u), fs(v))


def test_precritical_density_proxy():
    # every non-Fatou edge holds a precritical point of depth <= 2|V|
    for text in ["(10*)", "(101*)", "(10110*)", "1(0)"]:
        kn = kneading(text)
        t = sigma_closure(build_tree(kn))
        bound = 2 * len(t.vertices())
        for u, v in t.edges():
            if t.is_fatou_edge(u, v):
                continue
            assert diff(u, v) <= bound


def test_endpoints_are_initial_orbit_segment():
    for text in ["(1*)", "(11*)", "(10*)", "(101*)", "(10110*)", "1(0)",
                 "1(10)", "(100101*)"]:
        kn = kneading(text)
        t = build_tree(kn)
        eps = set(t.endpoints())
        orbit = {kn.seq.shift(k) for k in range(len(eps))}
        assert eps == orbit, text


# -- markov ------------------------------------------------------------------------


def test_markov_basilica_permutation():
    md = markov_data(build_tree(kneading("(1*)")))
    assert md.matrix.shape == (2, 2)
    assert sorted(md.matrix.flatten()) == [0, 0, 1, 1]
    assert max(abs(np.linalg.eigvals(md.matrix.astype(float)))) == pytest.approx(1.0)


def test_markov_chebyshev_full_cover():
    md = markov_data(build_tree(kneading("1(0)")))
    assert md.matrix.tolist() == [[1, 1], [1, 1]]


def test_markov_airplane_golden_ratio():
    md = markov_data(build_tree(kneading("(10*)")))
    rho = max(abs(np.linalg.eigvals(md.matrix.astype(float))))
    assert rho == pytest.approx((1 + 5 ** 0.5) / 2, abs=1e-9)


def test_markov_row_sums_and_integrality():
    for text in ["(1*)", "(11*)", "(10*)", "(101*)", "(10110*)", "1(0)"]:
        md = markov_data(build_tree(kneading(text)))
        assert md.matrix.min() >= 0
        assert md.matrix.sum(axis=1).min() >= 1


def test_markov_requires_finite():
    t = build_tree(staircase(15))
    with pytest.raises(TruncatedTree):
        markov_data(t)


# -- truncated and infinite-degree trees ----------------------------------------------


def test_staircase_tree_shape():
    t = build_tree(staircase(15))
    assert not t.finite
    for v, k in t.postcritical.items():
        assert t.degree_of(v) == 1, (fs(v), k)


def test_infinite_degree_critical_valency():
    prev = 0
    for k in range(2, 7):
        word = tuple(range(1, k + 1)) + (STAR,)
        kn = validate_kneading(EPSeq((), word, INF))
        t = build_tree(kn)
        val = t.degree_of(kn.critical_point())
        assert val >= prev
        prev = val
    assert prev == 6


# -- exports -----------------------------------------------------------------------


def test_json_export_structure_and_determinism():
    kn = kneading("(1*)")
    doc1 = tree_to_json(build_tree(kn))
    doc2 = tree_to_json(build_tree(kn))
    assert doc1 == doc2
    doc = json.loads(doc1)
    assert doc["meta"] == {"nu": "(1*)", "degree": 2, "mode": "finite",
                           "truncation": None}
    assert len(doc["nodes"]) == 3
    assert len(doc["edges"]) == 2
    assert all(e["fatou"] for e in doc["edges"])
    kinds = {n["kind"] for n in doc["nodes"]}
    assert kinds == {"critical-value", "critical-point", "fatou-boundary"}


def test_dot_export():
    dot = tree_to_dot(build_tree(kneading("(10*)")))
    assert dot.startswith("graph hubbard_tree {")
    assert "style=dotted" in dot
    assert dot.count(" -- ") == 5


def test_svg_and_text_export_smoke():
    t = build_tree(kneading("(10110*)"))
    svg = tree_to_svg(t)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == len(t.vertices())
    txt = tree_to_text(t)
    assert "vertices=9 edges=8" in txt


def test_export_ids_stable_under_insertion_order():
    # the same tree reached through different construction orders exports
    # identically
    kn = kneading("(10110*)")
    t1 = build_tree(kn)
    t2 = HubbardTree(kn)
    for k in [4, 1, 3, 2, 5]:
        t2.insert_point(kn.seq.shift(k), postcritical=k)
    t2.mode = ("finite", None)
    for s in lower_sequence(kn).orbit():
        t2.insert_point(s)
    assert tree_to_json(t1) == tree_to_json(t2)


def _export_trees():
    """Trees of every export shape: the kernel corpus, star words of
    period 8, prefix trees of degrees 2 and 3, the generators, more
    eventually periodic words, and star words cut short at a stage."""
    kns = _kernel_corpus() + list(star_periodic_sequences(8, 8))
    kns += [validate_kneading(parse_prefix(w)) for w in
            ("1011011100", "1100011111", "1001011000", "110100100010000100000")]
    kns.append(validate_kneading(parse_prefix("1201120", 3)))
    kns += [make(name, depth=d) for name in ("staircase", "feigenbaum")
            for d in (8, 11, 14, 24)]
    kns += [kneading(t) for t in ("10(0011)", "10(011)", "1101(0)")]
    trees = [build_tree(kn) for kn in kns]
    trees += [build_tree(kneading(t), 3) for t in ("(1001101100*)", "(10110*)")]
    return trees


def test_json_writer_matches_json_dumps():
    nulls = truncations = 0
    for t in _export_trees():
        *_, nodes, edges = _nodes_edges(t)
        doc = {"meta": _meta(t), "nodes": nodes, "edges": edges}
        assert tree_to_json(t) == json.dumps(doc, indent=2) + "\n", fs(t.nu)
        nulls += any(nd["depth"] is None for nd in nodes)
        truncations += isinstance(doc["meta"]["truncation"], int)
    assert nulls > 10 and truncations > 10


def _reference_vertex_order(tree):
    """Breadth-first ids that sort every neighbour list and skip the
    vertices already numbered."""
    key = functools.cmp_to_key(seq_cmp)
    order = {tree.nu: 0}
    queue = [tree.nu]
    while queue:
        nxt = []
        for u in queue:
            for v in sorted(tree.adj[u], key=key):
                if v not in order:
                    order[v] = len(order)
                    nxt.append(v)
        queue = nxt
    return order


def test_vertex_order_matches_sort_all_reference():
    trees = _export_trees()
    trees += [sigma_closure(t) for t in trees if t.finite]
    for t in trees:
        assert list(vertex_order(t).items()) == \
            list(_reference_vertex_order(t).items()), fs(t.nu)
