"""Helpers shared by the test modules."""

import itertools

import pytest

from hubbardtrees.symbolic import EPSeq, STAR, validate_kneading


def star_periodic_sequences(pmax, pmin=2, degree=2):
    """Every star-periodic kneading sequence of period pmin..pmax over
    the letters of the degree (binary by default)."""
    for p in range(pmin, pmax + 1):
        for bits in itertools.product(range(degree), repeat=p - 2):
            yield validate_kneading(EPSeq((), (1,) + bits + (STAR,), degree))


@pytest.fixture
def constructions(monkeypatch):
    """A one-item list that counts the EPSeq instances built (each intern
    miss calls ``EPSeq._store``) while the test runs.  The table holds
    sequences weakly, so its size cannot show a sequence that was built
    and dropped."""
    count = [0]
    store = EPSeq._store.__func__

    def counting(cls, key):
        count[0] += 1
        return store(cls, key)

    monkeypatch.setattr(EPSeq, "_store", classmethod(counting))
    return count
