"""The critical path: precritical points, gaps, and Fatou intervals.

The path from the critical point ``*nu`` to the critical value ``nu`` is
grown by repeatedly inserting, between adjacent points ``a < b`` with
``k = diff(a, b) < INF``, the unique precritical point of depth ``k``
compatible with both neighbours.  Pairs with ``diff = INF`` form gaps;
those are closed by a pair of Fatou intervals around the gap's central
itinerary.  Dyadic labels follow the midpoint rule exactly.

Every point but ``nu`` is ``w*nu`` for a wildcard-free word ``w``, so the
construction carries words: the split of a pair gives its ``diff`` and the
new point's word, whose depth is ``len(w) + 1``.  A split scans only the
older point's tail, a shift of nu, against ``*nu``, once per distinct
shift in one construction.  :func:`build_critical_path` then walks the
pairs of P_n once, placing each gap's central point and Fatou intervals
beside the pair, so the path's markers follow from each point's position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Tuple

from .errors import (DepthBudgetExceeded, NotStarPeriodic,
                     TrivialKneadingSequence)
from .symbolic import (EPSeq, INF, KneadingSequence, STAR, format_key,
                       format_sequence, precritical)

# the most points P_n may hold: all of stage 18 of a gap-free sequence, whose
# `htree path` output takes about 3.5 s and 155 MB as text, and 4 s and 255 MB
# as JSON, on a 2-vCPU machine
MAX_PATH_POINTS = 2 ** 17 + 1


@dataclass(frozen=True)
class PathPoint:
    """One point of the critical path, in path order.

    kind is one of ``critical-point``, ``precritical``, ``critical-value``,
    ``central`` (a gap's central itinerary), ``limit`` (the lower sequence
    adjacent to ``nu``).  ``label`` is the exact dyadic parameter, or None
    for limit points squeezed in without one.  ``word`` is the ``w`` of a
    point ``w*nu`` (empty for ``*nu``), and None for the other kinds.

    A point ``w*nu`` keeps only its word and ``nu``, and becomes a
    sequence only when its ``seq`` is read; every other point keeps its
    sequence as ``itinerary``.
    """

    kind: str
    label: Optional[Fraction]
    word: Optional[Tuple] = None
    nu: Optional[KneadingSequence] = field(default=None, repr=False)
    itinerary: Optional[EPSeq] = None

    @property
    def depth(self) -> Optional[int]:
        """The position of the first wildcard of ``w*nu``."""
        return None if self.word is None else len(self.word) + 1

    @cached_property
    def seq(self) -> EPSeq:
        if self.word is None:
            return self.itinerary
        return precritical(self.word, self.nu)


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
    word ``w`` (None for ``nu`` itself), and the splits of the tails
    scanned so far, kept as long as this object: one construction."""

    def __init__(self, nu: KneadingSequence):
        self.seq = s = nu.seq
        self.reach = 1 + len(s.pre) + len(s.per or ())
        self.crit = (STAR,) + s.letters(self.reach)  # a prefix nu may end sooner
        self.tails = {}

    def split(self, wa, wb) -> Tuple:
        """:func:`_split` of ``w_a*nu`` and ``w_b*nu``, in either order,
        where the newer point was inserted beside the older one.

        Let ``c = w*nu`` be inserted between a and b, with ``k = diff(a,
        b) = |w| + 1``.  Before position k, c reads w, the letters forced
        there; from k on it reads ``*nu``.  So the split of ``(a, c)`` or
        ``(c, b)`` is ``k = |w| + k'`` with the letters ``w + m'``, for
        ``(k', m')`` the split of the older point's tail from position
        ``|w|`` against ``*nu`` (merging is symmetric, so its side does not
        matter).  As ``*nu`` begins with the wildcard, ``k' >= 2``: by
        induction from ``(*nu, nu)``, the newer point is the deeper one, and
        the tail is ``sigma^m nu`` with ``m = |w| - |w_old| - 1`` (``|w_old|
        = -1`` for nu).  So each distinct m is scanned once, to a bound
        that depends on m alone: for exact nu both sides repeat with nu's
        period past ``1 + |pre|``, so one more period settles it; for a
        prefix nu the scan stops at the shorter side, as ``diff_within``.
        """
        if wb is not None and (wa is None or len(wa) < len(wb)):
            wa, wb = wb, wa  # wa is the newer point
        d = len(wa)
        m = d if wb is None else d - len(wb) - 1
        hit = self.tails.get(m)
        if hit is None:
            assert m >= 0, "adjacent path points differ in depth"
            tail = self.seq.letters(m + self.reach)[m:]
            hit = self.tails[m] = _split(
                tail, self.crit, self.reach if self.seq.exact else len(tail))
        k, letters = hit
        return (k if k is INF else d + k), wa + letters

    def central(self, letters: Tuple) -> EPSeq:
        """The central itinerary of an exact gap pair from the letters of
        its split, whose last period repeats."""
        s = self.seq
        p = len(s.per)
        return EPSeq(letters[:-p], letters[-p:], s.degree)


def build_critical_path(nu: KneadingSequence, n: int) -> CriticalPath:
    """P_n plus Fatou structure, in path order.

    P_1 = {*nu < nu} with labels 0 and 1; each stage inserts the midpoint
    point between every adjacent non-gap pair.  Hence |P_n| = 2^(n-1)+1
    exactly while no gap has appeared, and in general
    |P_{n+1}| = 2|P_n| - 1 - #gaps(P_n); a gap pair stays adjacent at
    every later stage.  A stage past MAX_PATH_POINTS points raises
    DepthBudgetExceeded before it is complete.

    All splits share one table of tails (:meth:`_Words.split`): at
    ``(10*)`` stage 12 the 4,095 splits make 12 scans, and a gap pair is
    answered from the table at every later stage and in the final pass.

    Only a star-periodic nu has gaps; a truncation certifies none, and a
    wildcard-free exact nu is not purely periodic (validate_kneading), two
    words of equal length differ at a letter, and ``diff(w_a*nu, w_b*nu)
    = INF`` with ``|w_a| < |w_b|`` would give ``nu[i + |w_b| - |w_a|] =
    nu[i]`` for all ``i >= 0``; ``(nu, w*nu)`` likewise, shifted ``|w| + 1``.

    The final pass walks the pairs of P_n once and places each gap's
    central point, labelled by the midpoint rule, between the pair, with
    its two Fatou intervals.  For star-periodic nu the limit point omega
    goes just before nu, with the interval [omega, nu], unless omega is
    one of the centrals.  If the last pair of P_n is a gap ``(x, nu)``, its
    central is ``lower_sequence(nu)``, so a limit point never separates nu
    from a central and :func:`path_table` reads each point's markers off
    its neighbours.  Non-periodic sequences have no Fatou intervals.
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

    path = CriticalPath(nu, [PathPoint("critical-point", Fraction(0), (), nu)], [])
    out = path.points
    for (wa, la), (wb, lb) in zip(points, points[1:]):
        if wb is None:
            b = PathPoint("critical-value", Fraction(1), itinerary=nu.seq)
        else:
            b = PathPoint("precritical", Fraction(lb, scale), wb, nu)
        if nu.star_periodic:
            k, letters = words.split(wa, wb)
            if k is INF:
                left, central = out[-1].seq, words.central(letters)
                path.gaps.append(Gap(left, b.seq, central))
                out.append(PathPoint("central", Fraction(la + lb, 2 * scale),
                                     itinerary=central))
                path.fatou += (FatouInterval(left, central),
                               FatouInterval(central, b.seq))
        out.append(b)

    if nu.star_periodic:
        omega = lower_sequence(nu)
        if all(g.central is not omega for g in path.gaps):
            out.insert(len(out) - 1, PathPoint("limit", None, itinerary=omega))
            path.fatou.append(FatouInterval(omega, nu.seq))
    return path


def build_pn(nu: KneadingSequence, n: int) -> CriticalPath:
    """The ordered set P_n of precritical points, with gaps recorded: the
    path of :func:`build_critical_path` without its central and limit
    points and its Fatou intervals."""
    path = build_critical_path(nu, n)
    path.points = [pt for pt in path.points if pt.kind not in ("central", "limit")]
    path.fatou = []
    return path


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


def path_table(path: CriticalPath) -> str:
    """One row per point in path order: kind, depth, word w, dyadic label,
    gap/Fatou markers.  Column order fixed.

    The markers follow from the order of :func:`build_critical_path`: the
    sides of a central point are gap boundaries, and the central point,
    its sides, the limit point and the nu after it are Fatou ends."""
    kinds = [None] + [pt.kind for pt in path.points] + [None]
    degree = path.nu.degree
    rows = [("#", "kind", "depth", "word", "label", "markers")]
    for i, pt in enumerate(path.points, start=1):
        side = "central" in (kinds[i - 1], kinds[i + 1])
        markers = []
        if pt.kind == "central":
            markers.append("gap-central")
        elif side:
            markers.append("gap-boundary")
        if side or pt.kind in ("central", "limit") or kinds[i - 1] == "limit":
            markers.append("fatou")
        if pt.kind == "critical-value":
            word = "-"
        elif pt.word is not None:
            word = format_key(pt.word, None, degree) if pt.word else "e"
        else:
            word = format_sequence(pt.seq)
        depth, label = pt.depth, pt.label
        rows.append((str(i), pt.kind, "-" if depth is None else str(depth), word,
                     "-" if label is None else f"{label.numerator}/{label.denominator}",
                     ",".join(markers)))

    # each column left-justified to its widest cell
    line = "  ".join(f"{{:<{max(map(len, col))}}}" for col in zip(*rows))
    return "".join(line.format(*r).rstrip() + "\n" for r in rows)
