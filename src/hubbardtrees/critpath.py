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
A path is one plain tuple per point, and it is printed from those tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import (DepthBudgetExceeded, NotStarPeriodic,
                     TrivialKneadingSequence)
from .symbolic import (EPSeq, INF, KneadingSequence, STAR, format_sequence,
                       letter_sep, precritical)

# the most points P_n may hold: all of stage 18 of a gap-free sequence, whose
# `htree path` output takes about 0.8 s and 136 MB as text, and 2.1 s and
# 244 MB as JSON, on a 2-vCPU machine
MAX_PATH_POINTS = 2 ** 17 + 1


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
    """One ``(kind, num, word, text, itinerary)`` row per point in path
    order: the label's numerator over ``scale`` (``2 * scale`` for a
    central) or None, and ``w*nu``'s word and text or else an itinerary."""

    nu: KneadingSequence
    rows: List[Tuple]
    scale: int
    gaps: List[Gap]
    fatou: List[FatouInterval] = field(default_factory=list)

    def ratio(self, kind, num) -> Optional[Tuple[int, int]]:
        """A label in lowest terms: shifted by num's trailing zeros (den's for 0)."""
        if num is None:
            return None
        den = self.scale << (kind == "central")
        shift = (num & -num or den).bit_length() - 1
        return num >> shift, den >> shift


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
        self.sep = letter_sep(s.degree)
        self.tails = {}

    def split(self, wa, wb, ta=None, tb=None) -> Tuple:
        """:func:`_split` of ``w_a*nu`` and ``w_b*nu``, in either order,
        where the newer point was inserted beside the older one, as ``(k,
        word, text)``: ta and tb are the texts of w_a and w_b, and text is
        None when the newer point's text is not passed.

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
        prefix nu the scan stops at the shorter side, as ``diff`` does.
        A word's text is its letters, each after the degree's :func:`letter_sep`;
        the text of ``m'`` is kept beside it, so the new text is one concatenation.
        A scan joins that text only for a caller that passes one, which is
        enough because within one construction the stage loop, the only
        caller that prints, runs before every caller that does not.
        """
        if wb is not None and (wa is None or len(wa) < len(wb)):
            wa, wb, ta = wb, wa, tb  # wa is the newer point
        d = len(wa)
        m = d if wb is None else d - len(wb) - 1
        hit = self.tails.get(m)
        if hit is None:
            assert m >= 0, "adjacent path points differ in depth"
            tail = self.seq.letters(m + self.reach)[m:]
            k, letters = _split(
                tail, self.crit, self.reach if self.seq.exact else len(tail))
            text = None if ta is None else "".join(self.sep + str(x) for x in letters)
            hit = self.tails[m] = (k, letters, text)
        k, letters, text = hit
        if ta is not None:
            ta += text
        return (k if k is INF else d + k), wa + letters, ta

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
    answered from the table at every later stage, in the final pass and
    in the refinement at nu that finds omega.

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
    points: List[Tuple] = [("critical-point", 0, (), "", None),
                           ("critical-value", scale, None, None, nu.seq)]
    for stage in range(2, n + 1):
        nxt = [points[0]]
        size = len(points)
        for a, b in zip(points, points[1:]):
            k, w, text = words.split(a[2], b[2], a[3], b[3])
            if k is not INF:
                size += 1
                if size > MAX_PATH_POINTS:
                    raise DepthBudgetExceeded(
                        f"P_{stage} of {nu} exceeds {MAX_PATH_POINTS} points")
                nxt.append(("precritical", (a[1] + b[1]) >> 1, w, text, None))
            nxt.append(b)
        points = nxt
    if not nu.star_periodic:
        return CriticalPath(nu, points, scale, [])

    path = CriticalPath(nu, [points[0]], scale, [])
    for a, b in zip(points, points[1:]):
        k, letters, _ = words.split(a[2], b[2])
        if k is INF:
            left, central = precritical(a[2], nu), words.central(letters)
            right = nu.seq if b[2] is None else precritical(b[2], nu)
            path.gaps.append(Gap(left, right, central))
            path.rows.append(("central", a[1] + b[1], None, None, central))
            path.fatou += (FatouInterval(left, central),
                           FatouInterval(central, right))
        path.rows.append(b)
    omega = _lower_sequence(nu, *_nu_chain(nu, words))
    if all(g.central is not omega for g in path.gaps):
        path.rows.insert(len(path.rows) - 1, ("limit", None, None, None, omega))
        path.fatou.append(FatouInterval(omega, nu.seq))
    return path


def build_pn(nu: KneadingSequence, n: int) -> CriticalPath:
    """The ordered set P_n of precritical points, with gaps recorded: the
    path of :func:`build_critical_path` without its central and limit
    points and its Fatou intervals."""
    path = build_critical_path(nu, n)
    return CriticalPath(nu, [r for r in path.rows if r[0] not in ("central", "limit")],
                        path.scale, path.gaps)


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
    return _nu_chain(nu, _Words(nu))


def _nu_chain(nu: KneadingSequence, words: _Words):
    """:func:`nu_chain` through the tails of a construction's words."""
    chain = [()]
    while True:
        k, w, _ = words.split(chain[-1], None)
        if k is INF:
            return chain, words.central(w)
        if len(chain[-1]) >= 4 * nu.period:  # its depth len(w) + 1 is past 4p
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
    return _lower_sequence(nu, *nu_chain(nu))


def _lower_sequence(nu: KneadingSequence, chain, central) -> EPSeq:
    """:func:`lower_sequence` from the answer of :func:`nu_chain`."""
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
        k, w, _ = words.split(rho[-1], rho[-2])
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

    It prints the rows: it builds no sequence or Fraction and joins no
    word.  The markers follow from the order of :func:`build_critical_path`:
    the sides of a central point are gap boundaries, and the central point,
    its sides, the limit point and the nu after it are Fatou ends."""
    kinds = [None] + [row[0] for row in path.rows] + [None]
    sep = letter_sep(path.nu.degree)
    rows = [("#", "kind", "depth", "word", "label", "markers")]
    for i, (kind, num, w, text, itinerary) in enumerate(path.rows, start=1):
        side = "central" in (kinds[i - 1], kinds[i + 1])
        markers = ("gap-central,fatou" if kind == "central" else
                   "gap-boundary,fatou" if side else
                   "fatou" if "limit" in (kind, kinds[i - 1]) else "")
        word = ("-" if kind == "critical-value" else
                format_sequence(itinerary) if w is None else
                f"[{text[len(sep):]}]" if sep and w else text or "e")
        rows.append((str(i), kind, "-" if w is None else str(len(w) + 1), word,
                     "-" if num is None else "%d/%d" % path.ratio(kind, num), markers))

    # each column left-justified to its widest cell
    line = "  ".join(f"%-{max(map(len, col))}s" for col in zip(*rows))
    return "".join((line % r).rstrip() + "\n" for r in rows)
