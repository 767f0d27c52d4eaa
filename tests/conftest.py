"""Helpers shared by the test modules."""

import itertools

from hubbardtrees.symbolic import EPSeq, STAR, validate_kneading


def star_periodic_sequences(pmax, pmin=2):
    """Every binary star-periodic kneading sequence of period pmin..pmax."""
    for p in range(pmin, pmax + 1):
        for bits in itertools.product([0, 1], repeat=p - 2):
            yield validate_kneading(EPSeq((), (1,) + bits + (STAR,), 2))
