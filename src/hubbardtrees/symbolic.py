"""Exact arithmetic on eventually periodic symbol sequences.

Sequences over the alphabet ``{0, .., d-1}`` (all integers when the degree
is infinite) plus the wildcard ``*`` are the currency for everything in
this package: kneading sequences, itineraries of tree points, precritical
points ``w*nu``.  Eventually periodic sequences are represented exactly by
a preperiod word and a primitive period word; anything else enters as a
:class:`PrefixSequence` truncation, and answers derived from one are only
valid to its declared depth.

Indexing is 1-based throughout: ``nu = nu_1 nu_2 ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Tuple, Union

from .errors import (
    BadLeadingSymbol,
    NotStarPeriodic,
    PeriodicWithoutStar,
    SequenceParseError,
    StarMisplaced,
    WrongDegree,
)

INF = math.inf


class _Star:
    """The wildcard symbol.  A singleton, distinct from every letter."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "*"


STAR = _Star()

Symbol = Union[int, _Star]
Word = Tuple[Symbol, ...]


def is_star(sym: Symbol) -> bool:
    return sym is STAR


def _sym_key(sym: Symbol):
    # letters sort by integer value, the wildcard last
    return (1, 0) if sym is STAR else (0, sym)


def _check_letters(word: Iterable[Symbol], degree) -> None:
    for sym in word:
        if sym is STAR:
            continue
        if not isinstance(sym, int):
            raise SequenceParseError(f"symbol {sym!r} is neither a letter nor *")
        if degree is not INF and not 0 <= sym < degree:
            raise SequenceParseError(
                f"letter {sym} outside alphabet of degree {degree}"
            )


def _primitive(per: Word) -> Word:
    n = len(per)
    for ell in range(1, n // 2 + 1):
        if n % ell == 0 and per == per[:ell] * (n // ell):
            return per[:ell]
    return per


def _canonical(pre: Word, per: Word) -> Tuple[Word, Word]:
    """Primitive period, minimal preperiod (its last symbol differs from
    the period's last symbol)."""
    if not per:
        raise SequenceParseError("period word must be nonempty")
    per = _primitive(per)
    while pre and pre[-1] == per[-1]:
        per = per[-1:] + per[:-1]
        pre = pre[:-1]
    return pre, per


class EPSeq:
    """An eventually periodic infinite symbol sequence in canonical form.

    Two instances describe the same infinite sequence iff they compare
    equal; the constructor canonicalizes, so equality is structural.
    Instances are immutable and interned per (preperiod, period, degree).
    """

    __slots__ = ("pre", "per", "degree", "head", "_hash", "_tail")
    _intern: dict = {}

    def __new__(cls, pre: Iterable[Symbol] = (), per: Iterable[Symbol] = (),
                degree=2):
        pre, per = _canonical(tuple(pre), tuple(per))
        key = (pre, per, degree)
        hit = cls._intern.get(key)
        if hit is not None:
            return hit
        _check_letters(pre, degree)
        _check_letters(per, degree)
        obj = super().__new__(cls)
        obj.pre = pre
        obj.per = per
        obj.degree = degree
        obj.head = pre[0] if pre else per[0]
        obj._hash = hash(key)
        obj._tail = None
        cls._intern[key] = obj
        return obj

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, EPSeq):
            return NotImplemented
        return (self.pre, self.per, self.degree) == (other.pre, other.per,
                                                     other.degree)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"EPSeq({format_sequence(self)!r}, degree={self.degree})"

    # -- structure ---------------------------------------------------------

    @property
    def exact(self) -> bool:
        return True

    @property
    def pure_periodic(self) -> bool:
        return not self.pre

    @property
    def period_length(self) -> int:
        return len(self.per)

    def at(self, i: int) -> Symbol:
        """The i-th symbol, 1-based."""
        if i < 1:
            raise IndexError("sequence positions are 1-based")
        i -= 1
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def tail(self) -> "EPSeq":
        """The left shift by one, cached."""
        t = self._tail
        if t is None:
            if self.pre:
                t = EPSeq(self.pre[1:], self.per, self.degree)
            else:
                t = EPSeq((), self.per[1:] + self.per[:1], self.degree)
            self._tail = t
        return t

    def shift(self, k: int) -> "EPSeq":
        if k < 0:
            raise ValueError("shift distance must be nonnegative")
        # normalize: beyond the preperiod the shift is periodic
        m, p = len(self.pre), len(self.per)
        if k > m:
            k = m + (k - m) % p
        s = self
        for _ in range(k):
            s = s.tail()
        return s

    def contains_star(self) -> bool:
        return any(x is STAR for x in self.pre) or any(x is STAR for x in self.per)

    def star_depth(self) -> Optional[int]:
        """Position of the first wildcard (the depth of a precritical
        point), or None for wildcard-free sequences."""
        for i in range(1, len(self.pre) + len(self.per) + 1):
            if self.at(i) is STAR:
                return i
        return None

    def orbit(self) -> list:
        """All distinct shifts, in shift order (finite for any EPSeq)."""
        out, seen = [], set()
        s = self
        while s not in seen:
            seen.add(s)
            out.append(s)
            s = s.tail()
        return out


class PrefixSequence:
    """A finite trustworthy prefix of an infinite sequence.

    The vehicle for kneading sequences that are not eventually periodic.
    Derived truncated points (for example ``w*nu`` over a prefix ``nu``)
    reuse this class, so the word may contain wildcards even though user
    input never does.  Every downstream answer is valid to ``depth`` only.
    """

    __slots__ = ("word", "degree", "head", "_hash")

    def __init__(self, word: Iterable[Symbol], degree=2):
        word = tuple(word)
        _check_letters(word, degree)
        self.word = word
        self.degree = degree
        self.head = word[0] if word else None
        self._hash = hash((word, degree, "prefix"))

    @property
    def exact(self) -> bool:
        return False

    @property
    def depth(self) -> int:
        return len(self.word)

    def at(self, i: int) -> Optional[Symbol]:
        """The i-th symbol (1-based), or None beyond the declared depth."""
        if i < 1:
            raise IndexError("sequence positions are 1-based")
        return self.word[i - 1] if i <= len(self.word) else None

    def tail(self) -> "PrefixSequence":
        return PrefixSequence(self.word[1:], self.degree)

    def shift(self, k: int) -> "PrefixSequence":
        if k < 0:
            raise ValueError("shift distance must be nonnegative")
        return PrefixSequence(self.word[k:], self.degree)

    def contains_star(self) -> bool:
        return any(x is STAR for x in self.word)

    def star_depth(self) -> Optional[int]:
        for i, x in enumerate(self.word):
            if x is STAR:
                return i + 1
        return None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PrefixSequence):
            return NotImplemented
        return self.word == other.word and self.degree == other.degree

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PrefixSequence({format_sequence(self)!r}, degree={self.degree})"


AnySeq = Union[EPSeq, PrefixSequence]


def seq_cmp(a: AnySeq, b: AnySeq) -> int:
    """Total order: lexicographic on the expansion, letters by value,
    wildcard last; used only for deterministic tie-breaking."""
    if a is b:
        return 0
    if a.exact and b.exact:
        bound = max(len(a.pre), len(b.pre)) + math.lcm(len(a.per), len(b.per))
    else:
        wa = len(a.per) + len(a.pre) if a.exact else len(a.word)
        wb = len(b.per) + len(b.pre) if b.exact else len(b.word)
        bound = max(wa, wb) * 2 + 2
    for i in range(1, bound + 1):
        x, y = a.at(i), b.at(i)
        if x is None or y is None:
            if x is None and y is None:
                break
            return -1 if x is None else 1
        kx, ky = _sym_key(x), _sym_key(y)
        if kx != ky:
            return -1 if kx < ky else 1
    return 0


# ---------------------------------------------------------------------------
# module-level operations


@lru_cache(maxsize=1 << 18)
def _diff_exact(a: EPSeq, b: EPSeq):
    bound = max(len(a.pre), len(b.pre)) + math.lcm(len(a.per), len(b.per))
    apre, aper, la, pa = a.pre, a.per, len(a.pre), len(a.per)
    bpre, bper, lb, pb = b.pre, b.per, len(b.pre), len(b.per)
    for i in range(bound):
        x = apre[i] if i < la else aper[(i - la) % pa]
        y = bpre[i] if i < lb else bper[(i - lb) % pb]
        if x is not y and x != y and x is not STAR and y is not STAR:
            return i + 1
    return INF


def diff(a: AnySeq, b: AnySeq):
    """Position of the first index where both symbols are letters and
    differ; the wildcard matches everything.  INF when no such index.

    Checking up to (max preperiod + lcm of periods) is complete because a
    difference position is an eventually periodic predicate with that
    modulus.  For truncated inputs, INF only means "no difference within
    the shared trustworthy window"; use :func:`diff_within` to get the
    window size.
    """
    if a.degree != b.degree:
        raise WrongDegree("diff requires sequences over the same alphabet")
    if a.exact and b.exact:
        return _diff_exact(a, b)
    return diff_within(a, b)[0]


def diff_within(a: AnySeq, b: AnySeq):
    """``(value, window)``: the first-difference position if it occurs
    within the trustworthy window, else (INF, window); window is INF when
    both inputs are exact."""
    if a.exact and b.exact:
        return _diff_exact(a, b), INF
    wa = INF if a.exact else len(a.word)
    wb = INF if b.exact else len(b.word)
    window = min(wa, wb)
    for i in range(1, int(window) + 1):
        x, y = a.at(i), b.at(i)
        if x is not STAR and y is not STAR and x != y:
            return i, window
    return INF, window


# ---------------------------------------------------------------------------
# kneading sequences


@dataclass(frozen=True)
class KneadingSequence:
    """A validated abstract kneading sequence.

    ``seq`` is either an exact EPSeq or a PrefixSequence truncation;
    ``period`` is set exactly when the sequence is star-periodic.
    """

    seq: AnySeq
    star_periodic: bool
    period: Optional[int] = None
    trivial: bool = False

    @property
    def degree(self):
        return self.seq.degree

    @property
    def exact(self) -> bool:
        return self.seq.exact

    def __str__(self):
        return format_sequence(self.seq)

    def critical_point(self) -> AnySeq:
        """The sequence ``*nu``."""
        return self._crit

    @cached_property
    def _crit(self) -> AnySeq:
        # built once per instance: every tripod meet asks for it
        return precritical((), self)

    def critical_value(self) -> AnySeq:
        return self.seq


TRIVIAL_WORD = (STAR,)


def validate_kneading(s: AnySeq) -> KneadingSequence:
    """Accept a sequence iff it is an abstract kneading sequence.

    Either a wildcard-free sequence that is not purely periodic, or a
    purely periodic one whose wildcard occurs exactly once per period, at
    the last position.  Every kneading sequence starts with the letter 1,
    except the trivial sequence of period one.
    """
    if not s.exact:
        if s.contains_star():
            raise StarMisplaced("truncated kneading prefixes must be wildcard-free")
        if not s.word:
            raise SequenceParseError("empty prefix")
        if s.head != 1:
            raise BadLeadingSymbol(f"kneading sequences start with 1, got {s.head!r}")
        return KneadingSequence(seq=s, star_periodic=False)

    if s.pure_periodic and s.per == TRIVIAL_WORD:
        return KneadingSequence(seq=s, star_periodic=True, period=1, trivial=True)

    if s.contains_star():
        if not s.pure_periodic:
            raise StarMisplaced("a sequence containing * must be purely periodic")
        stars = [i for i, x in enumerate(s.per) if x is STAR]
        if stars != [len(s.per) - 1]:
            raise StarMisplaced(
                "the wildcard must occur exactly once per period, at its end"
            )
        if s.head != 1:
            raise BadLeadingSymbol(f"kneading sequences start with 1, got {s.head!r}")
        return KneadingSequence(seq=s, star_periodic=True, period=len(s.per))

    if s.head != 1:
        raise BadLeadingSymbol(f"kneading sequences start with 1, got {s.head!r}")

    if s.pure_periodic:
        raise PeriodicWithoutStar(
            "purely periodic kneading sequences carry a * at the period end; "
            f"did you mean {format_sequence(EPSeq((), s.per[:-1] + (STAR,), s.degree))!r}?"
        )
    return KneadingSequence(seq=s, star_periodic=False)


def kneading(text: str, degree=2) -> KneadingSequence:
    """Parse-and-validate convenience wrapper."""
    return validate_kneading(parse_sequence(text, degree))


def precritical(w: Iterable[Symbol], nu: KneadingSequence) -> AnySeq:
    """The precritical point ``w * nu`` (depth ``len(w) + 1``)."""
    w = tuple(w)
    if any(x is STAR for x in w):
        raise SequenceParseError("precritical words contain no wildcard")
    s = nu.seq
    if s.exact:
        return EPSeq(w + (STAR,) + s.pre, s.per, s.degree)
    return PrefixSequence(w + (STAR,) + s.word, s.degree)


@dataclass(frozen=True)
class Bifurcation:
    """``nu`` arises from ``base`` of period q by extending to period p;
    ``letter`` is the unique symbol closing the base period."""

    q: int
    letter: int
    base: KneadingSequence


def is_bifurcation(nu: KneadingSequence) -> Optional[Bifurcation]:
    """The unique ``(q, e)`` with ``q`` strictly dividing the period p and
    ``ovl(nu_1..nu_{p-1} e)`` of exact period q, or None.
    """
    if not nu.star_periodic:
        raise NotStarPeriodic("bifurcation detection requires a star-periodic sequence")
    p = nu.period
    word = nu.seq.per  # canonical star-periodic period, wildcard last
    for q in range(1, p):
        if p % q:
            continue
        if any(word[i] != word[i % q] for i in range(p - 1)):
            continue
        block = word[:q]
        if _primitive(block) != block:
            continue
        e = block[q - 1]
        base_word = block[:-1] + (STAR,)
        base = validate_kneading(EPSeq((), base_word, nu.degree))
        return Bifurcation(q=q, letter=e, base=base)
    return None


# ---------------------------------------------------------------------------
# external angles


def angle_to_kneading(theta, degree: int) -> KneadingSequence:
    """Kneading sequence of a rational external angle under ``t -> d*t``.

    The circle is cut at the d preimages of theta; the arc containing
    theta is labelled 1 and the remaining arcs 0, 2, 3, ... counter-
    clockwise from it.  A boundary hit yields the wildcard (equivalently:
    the next orbit point is theta itself).
    """
    if degree is INF or not isinstance(degree, int):
        raise WrongDegree("angle conversion requires a finite degree")
    theta = Fraction(theta)
    if not 0 <= theta < 1:
        raise SequenceParseError("angles live in [0, 1)")

    cuts = sorted(Fraction(theta + j, degree) for j in range(degree))
    # arc index of a non-boundary point
    def arc(t):
        lo = 0
        for i, c in enumerate(cuts):
            if t > c:
                lo = i
        return lo

    theta_arc = arc(theta) if theta not in cuts else None
    labels = {}
    if theta_arc is not None:
        for r in range(degree):
            labels[(theta_arc + r) % degree] = 1 if r == 0 else (0 if r == 1 else r)

    orbit = []
    seen = {}
    t = theta
    while t not in seen:
        seen[t] = len(orbit)
        orbit.append(t)
        t = (t * degree) % 1
    preperiod = seen[t]
    period = len(orbit) - preperiod

    def symbol(k):
        nxt = orbit[k + 1] if k + 1 < len(orbit) else orbit[preperiod]
        if nxt == theta:
            return STAR
        return labels[arc(orbit[k])]

    pre = tuple(symbol(k) for k in range(preperiod))
    per = tuple(symbol(k) for k in range(preperiod, len(orbit)))
    return validate_kneading(EPSeq(pre, per, degree))


# ---------------------------------------------------------------------------
# text grammar

_COMPACT_CHARS = set("0123456789*")


def parse_sequence(text: str, degree=2) -> EPSeq:
    """Parse ``pre(per)`` or ``[a,b,..|c,d,..]`` into an EPSeq.

    The compact digit grammar serves degrees up to 10; the bracket grammar
    takes signed decimal integers and ``*`` and serves any degree,
    including infinite.
    """
    text = text.strip()
    if not text:
        raise SequenceParseError("empty sequence text")
    if text.startswith("["):
        return _parse_bracket(text, degree)
    return _parse_compact(text, degree)


def _parse_compact(text: str, degree) -> EPSeq:
    if degree is not INF and degree > 10:
        raise SequenceParseError("compact grammar serves degrees up to 10 only")
    bad = set(text) - _COMPACT_CHARS - set("()")
    if bad:
        raise SequenceParseError(f"unexpected characters {sorted(bad)} in {text!r}")
    if text.count("(") != text.count(")") or text.count("(") > 1:
        raise SequenceParseError(f"malformed parentheses in {text!r}")
    if "(" in text:
        if not text.endswith(")"):
            raise SequenceParseError(f"period must close the sequence in {text!r}")
        pre_txt, per_txt = text[:-1].split("(")
    else:
        raise SequenceParseError(
            f"{text!r} has no period; pass a bare word with --prefix for truncations"
        )
    if "*" in pre_txt:
        raise SequenceParseError("a wildcard in the preperiod is not allowed")
    pre = tuple(STAR if ch == "*" else int(ch) for ch in pre_txt)
    per = tuple(STAR if ch == "*" else int(ch) for ch in per_txt)
    return EPSeq(pre, per, degree)


def _parse_bracket(text: str, degree) -> EPSeq:
    if not text.endswith("]"):
        raise SequenceParseError(f"unterminated bracket form {text!r}")
    body = text[1:-1]
    if body.count("|") != 1:
        raise SequenceParseError("bracket form is [preperiod|period] with one bar")
    pre_txt, per_txt = body.split("|")
    pre = _parse_items(pre_txt)
    per = _parse_items(per_txt)
    if any(x is STAR for x in pre):
        raise SequenceParseError("a wildcard in the preperiod is not allowed")
    return EPSeq(pre, per, degree)


def _parse_items(txt: str) -> Word:
    txt = txt.strip()
    if not txt:
        return ()
    out = []
    for item in txt.split(","):
        item = item.strip()
        if item == "*":
            out.append(STAR)
        else:
            try:
                out.append(int(item))
            except ValueError:
                raise SequenceParseError(f"bad symbol {item!r}") from None
    return tuple(out)


def parse_prefix(text: str, degree=2) -> PrefixSequence:
    """Parse a bare word (digits, or a bracketed comma list) as a prefix."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]") or "|" in text:
            raise SequenceParseError(f"prefix bracket form is [a,b,...], got {text!r}")
        word = _parse_items(text[1:-1])
    else:
        if set(text) - set("0123456789"):
            raise SequenceParseError(f"prefix words are plain digits, got {text!r}")
        word = tuple(int(ch) for ch in text)
    if any(x is STAR for x in word):
        raise SequenceParseError("prefix words contain no wildcard")
    return PrefixSequence(word, degree)


def _fmt_sym(sym: Symbol) -> str:
    return "*" if sym is STAR else str(sym)


def format_sequence(s: AnySeq) -> str:
    if not s.exact:
        if all(isinstance(x, int) and 0 <= x <= 9 for x in s.word):
            return "".join(_fmt_sym(x) for x in s.word)
        return "[" + ",".join(_fmt_sym(x) for x in s.word) + "]"
    compact = s.degree is not INF and s.degree <= 10 and all(
        x is STAR or 0 <= x <= 9 for x in s.pre + s.per
    )
    if compact:
        return "".join(map(_fmt_sym, s.pre)) + "(" + "".join(map(_fmt_sym, s.per)) + ")"
    return ("[" + ",".join(map(_fmt_sym, s.pre)) + "|"
            + ",".join(map(_fmt_sym, s.per)) + "]")


def parse_degree(text: str):
    if text in ("inf", "infinity", "oo"):
        return INF
    try:
        d = int(text)
    except ValueError:
        raise SequenceParseError(f"bad degree {text!r}") from None
    if d < 2:
        raise SequenceParseError("degree must be at least 2")
    return d
