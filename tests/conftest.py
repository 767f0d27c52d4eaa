"""Helpers shared by the test modules."""

import itertools

from hubbardtrees.symbolic import EPSeq, STAR, validate_kneading


def star_periodic_sequences(pmax, pmin=2, degree=2):
    """Every star-periodic kneading sequence of period pmin..pmax over
    the letters of the degree (binary by default)."""
    for p in range(pmin, pmax + 1):
        for bits in itertools.product(range(degree), repeat=p - 2):
            yield validate_kneading(EPSeq((), (1,) + bits + (STAR,), degree))
