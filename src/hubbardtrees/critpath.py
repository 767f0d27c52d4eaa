"""The critical path: precritical points, gaps, and Fatou intervals.

The path from the critical point ``*nu`` to the critical value ``nu`` is
grown by repeatedly inserting, between adjacent points ``a < b`` with
``k = diff(a, b) < INF``, the unique precritical point of depth ``k``
compatible with both neighbours.  Pairs with ``diff = INF`` form gaps;
those are closed by a pair of Fatou intervals around the gap's central
itinerary.  Dyadic labels follow the midpoint rule exactly.

Every point but ``nu`` is ``w*nu`` for a wildcard-free word ``w``, so the
construction carries words: one scan of a pair gives its ``diff`` and the
new point's word, whose depth is ``len(w) + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import (DepthBudgetExceeded, NotStarPeriodic,
                     TrivialKneadingSequence)
from .symbolic import (EPSeq, INF, KneadingSequence, STAR, format_sequence,
                       precritical)

# the most points P_n may hold: all of stage 18 of a gap-free sequence, whose
# `htree path` output takes up to about 9 s and 350 MB on a 2-vCPU machine
MAX_PATH_POINTS = 2 ** 17 + 1


@dataclass(frozen=True)
class PathPoint:
    """One point of the critical path, in path order.

    kind is one of ``critical-point``, ``precritical``, ``critical-value``,
    ``central`` (a gap's central itinerary), ``limit`` (the lower sequence
    adjacent to ``nu``).  ``label`` is the exact dyadic parameter, or None
    for limit points squeezed in without one.  ``word`` is the ``w`` of a
    point ``w*nu`` of depth ``len(w) + 1`` (empty for ``*nu``), and None
    with the depth for the other kinds.
    """

    seq: EPSeq
    kind: str
    label: Optional[Fraction]
    depth: Optional[int] = None
    word: Optional[Tuple] = None


@dataclass(frozen=True)
class Gap:
    left: EPSeq
    right: EPSeq
    central: EPSeq


@dataclass(frozen=True)
class FatouInterval:
    """An abstract arc between a diff-INF pair; ``a`` precedes ``b``."""

    a: EPSeq
    b: EPSeq


@dataclass
class CriticalPath:
    nu: KneadingSequence
    points: List[PathPoint]
    gaps: List[Gap]
    fatou: List[FatouInterval] = field(default_factory=list)
    depth_built: int = 1


def _require_nontrivial(nu: KneadingSequence) -> None:
    if nu.trivial:
        raise TrivialKneadingSequence("the trivial sequence has no critical path")


def _split(x: Tuple, y: Tuple, bound: int):
    """``(k, letters)``: the first position ``k <= bound`` where the
    letter words x and y carry different letters, and the letters forced
    before it (a wildcard yields to the other side's letter).  Without
    one, k is INF and the letters span all ``bound`` positions."""
    stars = []  # where x yields its wildcard to y's letter
    for i, a, b in zip(range(bound), x, y):
        if a is b or a == b:
            assert a is not STAR, "adjacent path points share a wildcard position"
        elif a is STAR:
            stars.append(i)
        elif b is not STAR:
            break
    else:
        i = bound
    merged = list(x[:i])
    for j in stars:
        merged[j] = y[j]
    return (i + 1 if i < bound else INF), tuple(merged)


class _Words:
    """The points ``w*nu`` of one kneading sequence, each given by its
    word ``w``; the word None stands for ``nu`` itself."""

    def __init__(self, nu: KneadingSequence):
        self.seq = s = nu.seq
        # the letters of w*nu after w: the wildcard, then nu's letters,
        # extended by whole periods as the words grow
        self.suffix = (STAR,) + s.pre + (s.per or ())

    def split(self, wa, wb):
        """:func:`_split` of ``w_a*nu`` and ``w_b*nu``.  For exact nu both
        repeat with nu's period past position max(|w_a|, |w_b|) + 1 + |pre|,
        so one more period settles ``diff``; for a prefix nu the scan stops
        at the shorter side, the window of ``diff_within``."""
        s = self.seq
        if s.exact:
            bound = max(len(wa or ()), len(wb or ())) + 1 + len(s.pre) + len(s.per)
            while len(self.suffix) <= bound:
                self.suffix += s.per
        suffix = self.suffix
        x = suffix[1:] if wa is None else wa + suffix
        y = suffix[1:] if wb is None else wb + suffix
        return _split(x, y, bound if s.exact else min(len(x), len(y)))

    def central(self, letters: Tuple) -> EPSeq:
        """The central itinerary of an exact gap pair from the letters of
        its split, whose last period repeats."""
        s = self.seq
        p = len(s.per)
        return EPSeq(letters[:-p], letters[-p:], s.degree)


def build_pn(nu: KneadingSequence, n: int) -> CriticalPath:
    """The ordered set P_n of precritical points, with gaps recorded.

    P_1 = {*nu < nu} with labels 0 and 1; each stage inserts the midpoint
    point between every adjacent non-gap pair.  Hence |P_n| = 2^(n-1)+1
    exactly while no gap has appeared, and in general
    |P_{n+1}| = 2|P_n| - 1 - #gaps(P_n); a gap pair stays adjacent at
    every later stage.  A stage past MAX_PATH_POINTS points raises
    DepthBudgetExceeded before it is complete.
    """
    _require_nontrivial(nu)
    if n < 1:
        raise ValueError("stage must be at least 1")
    words = _Words(nu)
    scale = 1 << (n - 1)  # labels are numerators over 2^(n-1)
    points: List[Tuple] = [((), 0), (None, scale)]
    for stage in range(2, n + 1):
        nxt = [points[0]]
        size = len(points)
        for (wa, la), b in zip(points, points[1:]):
            k, w = words.split(wa, b[0])
            if k is not INF:
                size += 1
                if size > MAX_PATH_POINTS:
                    raise DepthBudgetExceeded(
                        f"P_{stage} of {nu} exceeds {MAX_PATH_POINTS} points")
                nxt.append((w, (la + b[1]) >> 1))
            nxt.append(b)
        points = nxt

    last = len(points) - 1
    out = [PathPoint(nu.critical_point(), "critical-point", Fraction(0),
                     depth=1, word=())]
    for w, num in points[1:last]:
        out.append(PathPoint(precritical(w, nu), "precritical", Fraction(num, scale),
                             depth=len(w) + 1, word=w))
    out.append(PathPoint(nu.seq, "critical-value", Fraction(1)))

    # a no-difference answer certifies a gap only for exact sequences;
    # for truncated input it just means "unsplit within the window"
    gaps = []
    if nu.exact:
        for i in range(last):
            k, letters = words.split(points[i][0], points[i + 1][0])
            if k is INF:
                gaps.append(Gap(out[i].seq, out[i + 1].seq, words.central(letters)))
    return CriticalPath(nu=nu, points=out, gaps=gaps, depth_built=n)


def nu_chain(nu: KneadingSequence) -> Tuple[List[Tuple], Optional[EPSeq]]:
    """The one-pair refinement of the critical path at a star-periodic
    nu, as ``(chain, central)``.

    chain holds the words w of the successive neighbours w*nu of nu, each
    splitting the pair of the one before and nu, up to the first one past
    depth 4p.  If a pair has no difference first, the chain stops there
    and central is the central itinerary of that gap; else it is None.
    Refining just the pair at nu gives the same neighbours as the full
    stage recursion, at linear instead of exponential cost.
    """
    if not nu.star_periodic:
        raise NotStarPeriodic("the lower sequence exists for star-periodic nu only")
    _require_nontrivial(nu)
    p = nu.period
    words = _Words(nu)
    chain = [()]
    while True:
        k, w = words.split(chain[-1], None)
        if k is INF:
            return chain, words.central(w)
        if len(chain[-1]) >= 4 * p:  # its depth len(w) + 1 is past 4p
            return chain, None
        chain.append(w)


def lower_sequence(nu: KneadingSequence) -> EPSeq:
    """The unique itinerary ``omega`` bounding the Fatou interval at nu:
    nu with every wildcard replaced by one fixed letter.

    For standard bifurcations omega is the central itinerary of the gap
    adjacent to nu; otherwise the letter is read off a deep enough
    neighbour of nu in :func:`nu_chain` (stabilized past depth 2p,
    re-checked at 4p).
    """
    chain, central = nu_chain(nu)
    if central is not None:
        return central
    p = nu.period

    def letter_past(depth):  # at position p of the first neighbour deeper
        return next(w[p - 1] for w in chain if len(w) >= depth)

    e = letter_past(2 * p)
    assert e == letter_past(4 * p), "lower-sequence letter failed to stabilize"
    word = tuple(e if x is STAR else x for x in nu.seq.per)
    return EPSeq((), word, nu.degree)


def build_critical_path(nu: KneadingSequence, n: int) -> CriticalPath:
    """P_n plus Fatou structure: two Fatou intervals around every gap's
    central itinerary, and for star-periodic nu the interval [omega, nu].
    Non-periodic sequences have no Fatou intervals.
    """
    path = build_pn(nu, n)
    if not nu.star_periodic:
        return path

    by_pair = {(g.left, g.right): g for g in path.gaps}
    points = []
    for cur, nxt in zip(path.points, path.points[1:] + [None]):
        points.append(cur)
        if nxt is not None and (cur.seq, nxt.seq) in by_pair:
            g = by_pair[(cur.seq, nxt.seq)]
            label = None
            if cur.label is not None and nxt.label is not None:
                label = (cur.label + nxt.label) / 2
            points.append(PathPoint(g.central, "central", label))
            path.fatou.append(FatouInterval(cur.seq, g.central))
            path.fatou.append(FatouInterval(g.central, nxt.seq))

    omega = lower_sequence(nu)
    if all(pt.seq != omega for pt in points):
        points.insert(len(points) - 1, PathPoint(omega, "limit", None))
        path.fatou.append(FatouInterval(omega, nu.seq))

    path.points = points
    return path


@dataclass(frozen=True)
class AlphaWitness:
    alpha: EPSeq
    kind: str  # "gap-central" | "rho-chain"
    chain: Tuple[EPSeq, ...] = ()


def alpha_point(nu: KneadingSequence, chain_length: int = 12) -> AlphaWitness:
    """The fixed point ovl(1), always on the critical path.

    Witness: either the gap whose central itinerary it is (sequences of
    the form ovl(1..1*)), or the chain rho_n of precritical points that
    converges to it, with diff(rho_n, ovl(1)) >= n - 1.
    """
    _require_nontrivial(nu)
    alpha = EPSeq((), (1,), nu.degree)
    s = nu.seq
    if nu.exact and not s.pre and all(x is STAR or x == 1 for x in s.per):
        return AlphaWitness(alpha, "gap-central")

    words = _Words(nu)
    rho = [None, ()]  # the words of nu and *nu
    while len(rho) < chain_length:
        k, w = words.split(rho[-1], rho[-2])
        if k is INF:
            break
        rho.append(w)
    rho = [nu.seq if w is None else precritical(w, nu) for w in rho]
    return AlphaWitness(alpha, "rho-chain", tuple(rho))


# ---------------------------------------------------------------------------
# text table export


def _fmt_label(label: Optional[Fraction]) -> str:
    if label is None:
        return "-"
    return f"{label.numerator}/{label.denominator}"


def path_table(path: CriticalPath) -> str:
    """One row per point in path order: kind, depth, word w, dyadic label,
    gap/Fatou markers.  Column order fixed."""
    fatou_ends = {}
    for iv in path.fatou:
        fatou_ends.setdefault(iv.a, []).append(iv.b)
        fatou_ends.setdefault(iv.b, []).append(iv.a)
    gap_sides = set()
    for g in path.gaps:
        gap_sides.update((g.left, g.right))

    rows = [("#", "kind", "depth", "word", "label", "markers")]
    for i, pt in enumerate(path.points, start=1):
        markers = []
        if pt.kind == "central":
            markers.append("gap-central")
        elif pt.seq in gap_sides:
            markers.append("gap-boundary")
        if pt.seq in fatou_ends:
            markers.append("fatou")
        if pt.kind == "critical-value":
            word = "-"
        elif pt.depth is not None:
            word = "".join(map(str, pt.word)) or "e"  # words carry no wildcard
        else:
            word = format_sequence(pt.seq)
        depth = str(pt.depth) if pt.depth is not None else "-"
        rows.append((str(i), pt.kind, depth, word, _fmt_label(pt.label),
                     ",".join(markers)))

    # each column left-justified to its widest cell
    line = "  ".join(f"{{:<{max(map(len, col))}}}" for col in zip(*rows))
    return "".join(line.format(*r).rstrip() + "\n" for r in rows)
