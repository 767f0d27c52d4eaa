"""Exact arithmetic on eventually periodic symbol sequences.

Sequences over the alphabet ``{0, .., d-1}`` (all integers when the degree
is infinite) plus the wildcard ``*`` are the currency for everything in
this package: kneading sequences, itineraries of tree points, precritical
points ``w*nu``.  Eventually periodic sequences are represented exactly by
a preperiod word and a primitive period word; anything else enters as a
truncation of unknown period, and answers derived from one are only valid
to its declared depth.

Indexing is 1-based throughout: ``nu = nu_1 nu_2 ...``.
"""

from __future__ import annotations

import math
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Tuple, Union
from weakref import KeyedRef

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
    """An infinite symbol sequence: exact and eventually periodic, or a
    truncation known only to its first letters.

    ``EPSeq(pre, per, degree)`` is the sequence ``pre per per ...`` in
    canonical form, so two exact instances describe the same sequence iff
    they compare equal.  ``EPSeq(word, None, degree)`` is a truncation of
    unknown period: its trusted letters are ``pre``, kept as given, and
    every answer derived from it is valid to ``len(pre)`` only.  Derived
    truncated points (for example ``w*nu`` over a truncated ``nu``) may
    carry wildcards even though user input never does.  A truncation and
    the exact sequence with the same letters are different values.
    ``letters(n)``, the first n symbols, is the one expansion every scan
    reads: a truncation simply has no letters past its word.

    Instances are immutable and interned per (pre, per, degree), so
    identity is equality among live instances.  The table holds them
    weakly: an instance nothing else references leaves it, and the same
    key later builds a new one.  To compare a sequence with one built
    later, keep a reference to it.
    """

    __slots__ = ("pre", "per", "degree", "head", "_hash", "_tail",
                 "__weakref__")
    _intern: dict = {}  # key -> weakref.KeyedRef(instance, _forget, key)

    def __new__(cls, pre: Iterable[Symbol] = (),
                per: Optional[Iterable[Symbol]] = (), degree=2):
        pre = tuple(pre)
        if per is not None:
            pre, per = _canonical(pre, tuple(per))
        key = (pre, per, degree)
        hit = cls._intern.get(key, _absent)()
        if hit is not None:
            return hit
        _check_letters(pre, degree)
        _check_letters(per or (), degree)
        return cls._store(key)

    @classmethod
    def _store(cls, key) -> "EPSeq":
        """Intern a new instance for a key ``(pre, per, degree)`` whose
        words are canonical and whose letters are checked."""
        pre, per, degree = key
        obj = super().__new__(cls)
        obj.pre = pre
        obj.per = per
        obj.degree = degree
        obj.head = pre[0] if pre else per[0] if per else None
        obj._hash = hash(key)
        obj._tail = None
        ref = KeyedRef(obj, _forget, key)
        # atomic: threads racing on one key all get the first live object
        # stored.  A dead ref whose callback has not run yet is removed
        # (only if it is still there and still dead) and the store retried.
        while True:
            hit = cls._intern.setdefault(key, ref)()
            if hit is not None:
                return hit
            _remove_dead_weakref(cls._intern, key)

    # -- basic protocol ----------------------------------------------------

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copies and unpickled values go through the intern table
        return (EPSeq, (self.pre, self.per, self.degree))

    def __repr__(self):
        return f"EPSeq({format_sequence(self)!r}, degree={self.degree})"

    # -- structure ---------------------------------------------------------

    @property
    def exact(self) -> bool:
        """False for a truncation."""
        return self.per is not None

    @property
    def pure_periodic(self) -> bool:
        return not self.pre

    @property
    def period_length(self) -> int:
        return len(self.per)

    def at(self, i: int) -> Optional[Symbol]:
        """The i-th symbol, 1-based; None past a truncation's letters."""
        if i < 1:
            raise IndexError("sequence positions are 1-based")
        i -= 1
        if i < len(self.pre):
            return self.pre[i]
        if self.per is None:
            return None
        return self.per[(i - len(self.pre)) % len(self.per)]

    def letters(self, n: int) -> Word:
        """The first n symbols, or all of a shorter truncation's."""
        pre, per = self.pre, self.per
        if n <= len(pre) or per is None:
            return pre[:n]
        q, r = divmod(n - len(pre), len(per))
        return pre + per * q + per[:r]

    def tail(self) -> "EPSeq":
        """The left shift by one, cached."""
        t = self._tail
        if t is None:
            # trusted, as in precritical: a shift of a canonical sequence is
            # canonical (a rotated primitive period is primitive) and checked
            pre, per = self.pre, self.per
            if pre or per is None:
                key = (pre[1:], per, self.degree)
            else:
                key = ((), per[1:] + per[:1], self.degree)
            t = self._tail = (EPSeq._intern.get(key, _absent)()
                              or EPSeq._store(key))
        return t

    def shift(self, k: int) -> "EPSeq":
        if k < 0:
            raise ValueError("shift distance must be nonnegative")
        # normalize: beyond the preperiod the shift is periodic
        m = len(self.pre)
        if self.per is not None and k > m:
            k = m + (k - m) % len(self.per)
        s = self
        for _ in range(k):
            s = s.tail()
        return s

    def contains_star(self) -> bool:
        return STAR in self.pre + (self.per or ())

    def star_depth(self) -> Optional[int]:
        """Position of the first wildcard (the depth of a precritical
        point), or None for wildcard-free sequences."""
        word = self.pre + (self.per or ())
        return word.index(STAR) + 1 if STAR in word else None

    def orbit(self) -> list:
        """All distinct shifts, in shift order (finite for any EPSeq)."""
        out, seen = [], set()
        s = self
        while s not in seen:
            seen.add(s)
            out.append(s)
            s = s.tail()
        return out


def _forget(ref, table=EPSeq._intern, remove=_remove_dead_weakref):
    # a ref's callback: drop its entry if that is still a dead ref; the
    # defaults keep the callback working while the module is torn down
    remove(table, ref.key)


def _absent():
    # the intern lookup's default: called like a dead ref, it gives None
    return None


def _bound(a: EPSeq, b: EPSeq) -> int:
    """How far two sequences are read: the longer preperiod plus the lcm
    of the periods, a truncation's period counting as 1.  Two exact
    sequences that agree this far agree everywhere, because a difference
    position is an eventually periodic predicate with that modulus; and
    the bound passes the end of any truncation, where ``letters`` stop."""
    return max(len(a.pre), len(b.pre)) + math.lcm(len(a.per or (STAR,)),
                                                  len(b.per or (STAR,)))


def seq_cmp(a: EPSeq, b: EPSeq) -> int:
    """Total order: lexicographic on the expansion, letters by value,
    wildcard last, a truncation before its extensions; used only for
    deterministic tie-breaking."""
    if a is b:
        return 0
    n = _bound(a, b)
    ka = [_sym_key(x) for x in a.letters(n)]
    kb = [_sym_key(x) for x in b.letters(n)]
    return (ka > kb) - (ka < kb)


# ---------------------------------------------------------------------------
# module-level operations


def diff(a: EPSeq, b: EPSeq):
    """Position of the first index where both symbols are letters and
    differ; the wildcard matches everything.  INF when no such index.

    For truncated inputs, INF only means "no difference within the shared
    trustworthy window", the shortest truncation's letters.
    """
    if a.degree != b.degree:
        raise WrongDegree("diff requires sequences over the same alphabet")
    n = _bound(a, b)
    for i, (x, y) in enumerate(zip(a.letters(n), b.letters(n)), 1):
        if x is not y and x != y and x is not STAR and y is not STAR:
            return i
    return INF


# ---------------------------------------------------------------------------
# kneading sequences


@dataclass(frozen=True)
class KneadingSequence:
    """A validated abstract kneading sequence.

    ``seq`` is an exact EPSeq or a truncation;
    ``period`` is set exactly when the sequence is star-periodic.
    """

    seq: EPSeq
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

    def critical_point(self) -> EPSeq:
        """The sequence ``*nu``."""
        return self._crit

    @cached_property
    def _crit(self) -> EPSeq:
        # built once per instance: every tripod meet asks for it
        return precritical((), self)


TRIVIAL_WORD = (STAR,)


def validate_kneading(s: EPSeq) -> KneadingSequence:
    """Accept a sequence iff it is an abstract kneading sequence.

    Either a wildcard-free sequence that is not purely periodic, or a
    purely periodic one whose wildcard occurs exactly once per period, at
    the last position.  Every kneading sequence starts with the letter 1,
    except the trivial sequence of period one.
    """
    if not s.exact:
        if s.contains_star():
            raise StarMisplaced("truncated kneading prefixes must be wildcard-free")
        if not s.pre:
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


def precritical_key(w: Iterable[Symbol], nu: KneadingSequence) -> Tuple:
    """The canonical key ``(pre, per, degree)`` of the precritical point
    ``w * nu`` (depth ``len(w) + 1``), without interning it.

    Only w is checked.  nu's letters were checked, and its period made
    primitive and canonical, when its sequence was built.  So if nu has
    a preperiod, ``(w * pre, per)`` is canonical as it stands: pre ends
    in another letter than per.  If not, the period only rotates while
    the last letters of ``w *`` match its end, and a rotation of a
    primitive period is primitive.
    """
    w = tuple(w)
    if STAR in w:
        raise SequenceParseError("precritical words contain no wildcard")
    s = nu.seq
    degree = s.degree
    _check_letters(w, degree)
    pre, per = w + (STAR,) + s.pre, s.per
    if per is not None and not s.pre:
        while pre and pre[-1] == per[-1]:
            pre, per = pre[:-1], per[-1:] + per[:-1]
    return pre, per, degree


def precritical(w: Iterable[Symbol], nu: KneadingSequence) -> EPSeq:
    """The precritical point ``w * nu``, interned under
    :func:`precritical_key`."""
    key = precritical_key(w, nu)
    return EPSeq._intern.get(key, _absent)() or EPSeq._store(key)


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
        lo = degree - 1  # below the first cut: the arc that wraps through 0
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


def parse_prefix(text: str, degree=2) -> EPSeq:
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
    return EPSeq(word, None, degree)


def letter_sep(degree) -> str:
    """Between printed letters: nothing up to degree 10 (digits), else a comma."""
    return "" if degree <= 10 else ","


def format_key(pre: Word, per: Optional[Word], degree) -> str:
    """The sequence with key ``(pre, per, degree)`` as printed (the
    wildcard's str is ``*``); a word of letters prints as the truncation
    with those letters."""
    compact = not letter_sep(degree)
    if per is None:
        if compact and STAR not in pre:
            return "".join(map(str, pre))
        return "[" + ",".join(map(str, pre)) + "]"
    if compact:
        return "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")"
    return ("[" + ",".join(map(str, pre)) + "|"
            + ",".join(map(str, per)) + "]")


def format_sequence(s: EPSeq) -> str:
    return format_key(s.pre, s.per, s.degree)


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
