"""Tree assembly, the meet oracle, Markov data, exports."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hubbardtrees.critpath import build_pn, lower_sequence
from hubbardtrees.errors import MeetInconsistency, TruncatedTree
from hubbardtrees.export import tree_to_dot, tree_to_json, tree_to_svg, tree_to_text
from hubbardtrees.generators import staircase
from hubbardtrees.symbolic import (
    EPSeq,
    INF,
    STAR,
    angle_to_kneading,
    diff,
    format_sequence,
    kneading,
    validate_kneading,
)
from hubbardtrees.treebuild import (
    HubbardTree,
    _prepend,
    build_tree,
    markov_data,
    meet,
    sigma_closure,
)

from conftest import star_periodic_sequences

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
    pool = [pt.seq for pt in build_pn(kn, 5).points]
    pool += [lower_sequence(kn)]
    for _ in range(40):
        x, y, z = rng.sample(pool, 3)
        results = {meet(*perm, kn) for perm in itertools.permutations((x, y, z))}
        assert len(results) == 1


def test_meet_matches_path_order_scan():
    # on the critical path the tripod meet is the middle point in path order
    for text in ["(10*)", "1(0)"]:
        kn = kneading(text)
        pts = [(pt.label, pt.seq) for pt in build_pn(kn, 6).points]
        rng = random.Random(3)
        for _ in range(300):
            (la, a), (lb, b), (lc, c) = rng.sample(pts, 3)
            middle = sorted([(la, a), (lb, b), (lc, c)])[1][1]
            assert meet(a, b, c, kn) == middle


def test_meet_of_star_side_points_is_starnu_for_critical_anchor():
    kn = kneading("(10*)")
    pts = [pt.seq for pt in build_pn(kn, 8).points]
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
