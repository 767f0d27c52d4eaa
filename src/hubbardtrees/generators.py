"""Builtin kneading-sequence generators for the CLI and the test suite."""

from __future__ import annotations

from .analysis import address_chain, kneading_from_address
from .errors import SequenceParseError
from .symbolic import EPSeq, KneadingSequence, validate_kneading


def staircase(depth: int) -> KneadingSequence:
    """Prefix of 1 10 100 1000 ...: ever longer runs of zeros, so the
    critical value is the only postcritical point starting 11.  The true
    sequence is non-recurrent with an infinite tree."""
    if depth < 1:
        raise SequenceParseError("staircase depth must be at least 1")
    word = []
    block = 1
    while len(word) < depth:
        word.extend([1] + [0] * (block - 1))
        block += 1
    return validate_kneading(EPSeq(word[:depth], None, 2))


def feigenbaum(depth: int) -> KneadingSequence:
    """Prefix of the period-doubling limit, from the internal address
    1 -> 2 -> 4 -> ... -> 2^k with 2^k the largest power within depth."""
    if depth < 2:
        raise SequenceParseError("feigenbaum depth must be at least 2")
    entries = [1]
    while entries[-1] * 2 <= depth:
        entries.append(entries[-1] * 2)
    word = address_chain(entries)[-1]
    full = tuple(word[i % len(word)] for i in range(depth))
    return validate_kneading(EPSeq(full, None, 2))


def make(name: str, *, depth: int = 16, params: str = "") -> KneadingSequence:
    """Generator dispatch for `--gen NAME` / `--gen NAME=PARAMS`."""
    if name in ("staircase", "feigenbaum"):
        if params:
            raise SequenceParseError(f"{name} takes no parameters, got {params!r}")
        return staircase(depth) if name == "staircase" else feigenbaum(depth)
    if name == "address":
        try:
            entries = [int(x) for x in params.split(",") if x.strip()]
        except ValueError:
            raise SequenceParseError(f"bad address parameters {params!r}") from None
        return kneading_from_address(entries)
    if name == "prefix":
        from .symbolic import parse_prefix

        return validate_kneading(parse_prefix(params, 2))
    raise SequenceParseError(
        f"unknown generator {name!r}; choose staircase, feigenbaum, address, prefix"
    )
