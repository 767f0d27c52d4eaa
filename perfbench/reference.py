"""Capture ``reference.json``: the known-good data the benchmark checks against.

    python3 perfbench/reference.py

Run it only on a commit whose output is trusted.  It records

- ``tree_json``: the first 16 hex digits of the SHA-256 of the stdout of
  every ``htree tree --nu W --format json`` command tree-sweep can run
  (every binary star-periodic word W of period <= 12), keyed by the
  command line.  Tree structure is exact, and the CLI output is required
  to stay byte-identical;
- ``degree3``: ``[n, k, word]`` for the first angle ``k/(3^n - 1)``,
  n <= 6, giving each distinct non-trivial degree-3 kneading word, so
  corpora can use degree-3 inputs without calling the library;
- ``defective``: ``"degree:word"`` for every star word of the corpus
  pools (degree 2 to period 10, the degree-3 pool, the ``inf`` pool)
  whose tree has zero core entropy and a transition matrix M with a
  Jordan block of size > 1 at eigenvalue 1 (rank (M-I)^2 < rank (M-I)).
  Power iteration converges only like 1/k on these, so the seed commit
  runs it to its step cap, far slower than on any other input; corpora
  sample them in fixed numbers so the cost of a pass does not depend on
  the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from checks import digest  # noqa: E402
from corpus import REFERENCE_PATH, inf_pool, star_words, tree_argvs  # noqa: E402
import numpy as np  # noqa: E402

from hubbardtrees import build_tree, cli, kneading, markov_data  # noqa: E402
from hubbardtrees.symbolic import INF, angle_to_kneading  # noqa: E402

DEG3_NMAX = 6
ENTROPY_PMAX = 10


def is_defective(m: np.ndarray) -> bool:
    """Spectral radius 1 with a Jordan block of size > 1 at eigenvalue 1."""
    if max(abs(np.linalg.eigvals(m))) > 1.0 + 1e-6:
        return False
    a = m - np.eye(len(m), dtype=m.dtype)
    return np.linalg.matrix_rank(a @ a) < np.linalg.matrix_rank(a)


def cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"htree {' '.join(argv)} exited {code}")
    return buf.getvalue()


def main() -> None:
    trees = {" ".join(a): digest(cli_stdout(list(a))) for a in tree_argvs()}
    degree3 = {}
    for n in range(1, DEG3_NMAX + 1):
        q = 3 ** n - 1
        for k in range(q):
            kn = angle_to_kneading(Fraction(k, q), 3)
            if kn.star_periodic and not kn.trivial:
                degree3.setdefault(str(kn), [n, k, str(kn)])
    pools = ([(2, w) for w in star_words(ENTROPY_PMAX)]
             + [(3, w) for w in degree3] + [(INF, w) for w in inf_pool()])
    defective = [f"{'inf' if d is INF else d}:{w}" for d, w in pools
                 if is_defective(markov_data(build_tree(kneading(w, d))).matrix)]
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"tree_json": trees, "degree3": list(degree3.values()),
                   "defective": defective}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
