"""Seeded input corpora for the four benchmark workloads.

Generating a corpus is pure string work on this file and on
``reference.json``: nothing here imports ``hubbardtrees``, so building the
inputs warms none of the library's caches or intern tables before the
timed pass.  The same seed always gives the same inputs in the same order.

Why each workload exists:

- ``tree-sweep``: every binary star-periodic word up to a period, built
  and exported as JSON.  The tripod ``meet`` dominates and its cache gets
  no hits; no entropy, closure or orbit classification runs.
- ``classify-sweep``: full classification of degree-2 star words,
  degree-3 angle sequences, ``--degree inf`` bracket words, and prefix
  and generator inputs, whose trees are truncated.  The analysis layer
  rebuilds trees and closures per input, and the "defective" zero-entropy
  trees (see ``sample``) run the Perron iteration to its cap.
- ``path-deep``: deep critical paths over star words (standard
  bifurcations such as ``(10010*)`` included, which have gaps) and
  eventually periodic words.  It creates many fresh interned sequences
  and ``diff`` entries and never calls ``meet``.

Corpora sample the slow inputs in fixed numbers (``sample``), so the seed
changes which inputs run but hardly what a pass costs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

WORKLOADS = ("tree-sweep", "classify-sweep", "path-deep")

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


@dataclass(frozen=True)
class Sizes:
    tree_pmax: int          # every star word of period <= this
    tree_long: int          # plus this many sampled from periods pmax+1, pmax+2
    classify_pmax: int
    deg3_nmax: int          # every degree-3 angle sequence of k/(3^n - 1), n <= this
    classify_deg3_extra: int  # plus this many sampled from larger n
    classify_inf: int
    classify_prefix: int    # prefix words sampled from PREFIX_LEN-letter words
    classify_gen: int       # generator depths 8, 10, .. for staircase, feigenbaum
    path_pmax: int
    path_depth: int
    path_ep: int            # sampled eventually periodic words


FULL = Sizes(tree_pmax=10, tree_long=48, classify_pmax=9, deg3_nmax=5,
             classify_deg3_extra=16, classify_inf=32, classify_prefix=16,
             classify_gen=8, path_pmax=8, path_depth=10, path_ep=64)
TINY = Sizes(tree_pmax=5, tree_long=4, classify_pmax=5, deg3_nmax=2,
             classify_deg3_extra=2, classify_inf=3, classify_prefix=2,
             classify_gen=1, path_pmax=4, path_depth=5, path_ep=3)
PREFIX_LEN = 10


@dataclass(frozen=True)
class Case:
    """One CLI invocation and what its output check needs to know."""

    argv: Tuple[str, ...]
    code: int = 0                 # declared exit code
    nu: Optional[str] = None      # the input sequence text, when there is one
    degree: str = "2"
    depth: Optional[int] = None   # the path stage, for path checks


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def star_words(pmax: int, pmin: int = 2) -> List[str]:
    """Binary star-periodic words (1 w *) of period pmin..pmax."""
    out = []
    for p in range(pmin, pmax + 1):
        for bits in itertools.product("01", repeat=p - 2):
            out.append("(1" + "".join(bits) + "*)")
    return out


def _primitive(word: str) -> bool:
    n = len(word)
    return all(word != word[d:] + word[:d] for d in range(1, n) if n % d == 0)


def eventually_periodic_words(max_pre: int = 3, max_per: int = 4) -> List[str]:
    """Binary words pre(per) starting with 1, in canonical form (the last
    letter of pre differs from the last of per, per primitive), so every
    one is a valid non-periodic kneading sequence."""
    out = []
    for lp in range(1, max_pre + 1):
        for pre in itertools.product("01", repeat=lp - 1):
            pre = "1" + "".join(pre)
            for lq in range(1, max_per + 1):
                for per in itertools.product("01", repeat=lq):
                    per = "".join(per)
                    if _primitive(per) and pre[-1] != per[-1]:
                        out.append(f"{pre}({per})")
    return out


def inf_pool() -> List[str]:
    """Star-periodic bracket words [|1,x,..,*] over the integers, period
    3 to 5, entries -3..4."""
    out = []
    for p in range(3, 6):
        for body in itertools.product(range(-3, 5), repeat=p - 2):
            out.append("[|" + ",".join(map(str, (1,) + body + ("*",))) + "]")
    return out


def sample(rng: random.Random, words: List[str], degree: str, ref: dict,
           count: int, slow: int) -> List[str]:
    """`count` distinct words, exactly `slow` of them (or all there are)
    from the reference's ``defective`` list, the inputs on which the Perron
    iteration is far slower than on any other; so the seed does not change
    how many of them a corpus holds."""
    tagged = set(ref["defective"])
    hard = [w for w in words if f"{degree}:{w}" in tagged]
    rest = [w for w in words if f"{degree}:{w}" not in tagged]
    picked = rng.sample(hard, min(slow, len(hard)))
    return picked + rng.sample(rest, count - len(picked))


def _degree3(ref: dict, rng: random.Random, nmax: int, extra: int
             ) -> List[str]:
    """All degree-3 angle words with n <= nmax, plus `extra` sampled from
    the larger angles of the reference pool."""
    fixed = [w for n, _, w in ref["degree3"] if n <= nmax]
    rest = [w for n, _, w in ref["degree3"] if n > nmax]
    return fixed + sample(rng, rest, "3", ref, extra, slow=0)


def tree_argvs(sizes: Sizes = FULL) -> List[Tuple[str, ...]]:
    """Every tree-sweep input the seed can pick from, for the reference."""
    return [_tree_argv(w) for w in star_words(sizes.tree_pmax + 2)]


def _tree_argv(word: str) -> Tuple[str, ...]:
    return ("tree", "--nu", word, "--format", "json")


def _tree_cases(sizes: Sizes, rng: random.Random) -> List[Case]:
    words = star_words(sizes.tree_pmax)
    words += rng.sample(star_words(sizes.tree_pmax + 2, sizes.tree_pmax + 1),
                        sizes.tree_long)
    return [Case(_tree_argv(w)) for w in words]


def prefix_words() -> List[str]:
    """Every binary word of PREFIX_LEN letters starting with 1."""
    return ["1" + "".join(b) for b in itertools.product("01", repeat=PREFIX_LEN - 1)]


def _classify_cases(sizes: Sizes, rng: random.Random, ref: dict) -> List[Case]:
    cases = [Case(("classify", "--nu", w), nu=w)
             for w in star_words(sizes.classify_pmax)]
    for w in _degree3(ref, rng, sizes.deg3_nmax, sizes.classify_deg3_extra):
        cases.append(Case(("classify", "--degree", "3", "--nu", w),
                          nu=w, degree="3"))
    for w in sample(rng, inf_pool(), "inf", ref, sizes.classify_inf, slow=2):
        cases.append(Case(("classify", "--degree", "inf", "--nu", w),
                          nu=w, degree="inf"))
    # truncated trees: the only inputs that run the prefix meet and the
    # generators
    for w in rng.sample(prefix_words(), sizes.classify_prefix):
        cases.append(Case(("classify", "--nu", w, "--prefix")))
    for name in ("staircase", "feigenbaum"):
        for i in range(sizes.classify_gen):
            cases.append(Case(("classify", "--gen", name, "--depth", str(8 + 2 * i))))
    return cases


def _path_cases(sizes: Sizes, rng: random.Random) -> List[Case]:
    pool = eventually_periodic_words()
    words = star_words(sizes.path_pmax)
    if "(10010*)" not in words:
        words.append("(10010*)")
    words.append("1(10)")
    words += rng.sample([w for w in pool if w != "1(10)"], sizes.path_ep)
    d = str(sizes.path_depth)
    return [Case(("path", "--nu", w, "--depth", d), nu=w,
                 depth=sizes.path_depth) for w in words]


def make_corpus(workload: str, seed: int, sizes: Sizes = FULL) -> List[Case]:
    """The workload's inputs for this seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tree-sweep":
        cases = _tree_cases(sizes, rng)
    elif workload == "classify-sweep":
        cases = _classify_cases(sizes, rng, load_reference())
    elif workload == "path-deep":
        cases = _path_cases(sizes, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases


def input_hash(cases: List[Case]) -> str:
    """Digest of the input list, recorded with every result."""
    text = "\n".join(" ".join(c.argv) for c in cases)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
