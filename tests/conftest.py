"""Helpers shared by the test modules."""

import itertools
from fractions import Fraction

import pytest

from hubbardtrees.symbolic import (
    EPSeq,
    INF,
    STAR,
    angle_to_kneading,
    kneading,
    precritical,
    validate_kneading,
)


def star_periodic_sequences(pmax, pmin=2, degree=2):
    """Every star-periodic kneading sequence of period pmin..pmax over
    the letters of the degree (binary by default)."""
    for p in range(pmin, pmax + 1):
        for bits in itertools.product(range(degree), repeat=p - 2):
            yield validate_kneading(EPSeq((), (1,) + bits + (STAR,), degree))


def kernel_corpus():
    """Kneading sequences whose trees are all finite: the binary star
    words to period 7, the degree-3 angle sequences k/(3^n - 1) for
    n <= 3, five of degree inf, and 1(10)."""
    kns = list(star_periodic_sequences(7))
    angles = {angle_to_kneading(Fraction(k, 3 ** n - 1), 3)
              for n in (1, 2, 3) for k in range(3 ** n - 1)}
    kns += sorted((kn for kn in angles if not kn.trivial), key=str)
    kns += [kneading(text, INF) for text in
            ("[|1,2,*]", "[|1,-2,1,*]", "[|1,0,2,*]", "[|1,2,3,*]", "[1,2|3]")]
    kns.append(kneading("1(10)"))
    return kns


def path_points(path):
    """``(kind, label, seq)`` per row of a critical path: the label as a
    Fraction or None, and the point's sequence, ``w*nu`` or its itinerary."""
    return [(kind, None if num is None else Fraction(*path.ratio(kind, num)),
             itinerary if w is None else precritical(w, path.nu))
            for kind, num, w, _, itinerary in path.rows]


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
