"""Output checks, run after the timed pass in the same process.

Each check returns ``None`` for a good output or a one-line reason.  None
of them compares against a value the library is known to get wrong:
trees are compared with digests of exact structure, entropy with an
independent numpy eigenvalue computation within a tolerance that also
accepts an exact answer, and paths with properties the construction
guarantees.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from typing import Optional

import numpy as np

from corpus import Case


def digest(text: str) -> str:
    """The reference digest of a CLI output (see ``reference.py``)."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_tree(case: Case, out: str, ref: dict) -> Optional[str]:
    want = ref["tree_json"].get(" ".join(case.argv))
    if want is None:
        return "no reference digest for this input"
    if digest(out) != want:
        return "tree JSON differs from the reference digest"
    doc = json.loads(out)
    ids = {n["id"] for n in doc["nodes"]}
    edges = [(e["a"], e["b"]) for e in doc["edges"]]
    if len(edges) != len(ids) - 1:
        return f"{len(edges)} edges for {len(ids)} vertices"
    adj = {i: [] for i in ids}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, todo = {0}, [0]
    while todo:
        for v in adj[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    if seen != ids:
        return "tree is not connected"
    return None


_ENTROPY = re.compile(r"^entropy:\s+(\S+)$", re.M)
_ADMISSIBLE = re.compile(r"^admissible: (True|False)", re.M)
_ORBIT_KIND = re.compile(r"^orbit:.* kind (\S+)$", re.M)


def check_classify(case: Case, out: str, ref: dict) -> Optional[str]:
    adm = _ADMISSIBLE.search(out)
    if adm is None:
        return "no admissibility line"
    evil = "evil" in _ORBIT_KIND.findall(out)
    if (adm.group(1) == "False") != evil:
        return f"admissible {adm.group(1)} but evil orbit listed: {evil}"
    m = _ENTROPY.search(out)
    if case.nu is None:  # a prefix or generator input: the tree is truncated
        return "entropy printed for a truncated tree" if m else None

    from hubbardtrees import (build_tree, internal_address, kneading,
                              kneading_from_address, markov_data)
    from hubbardtrees.symbolic import parse_degree

    degree = parse_degree(case.degree)
    kn = kneading(case.nu, degree)
    tree = build_tree(kn)
    if not tree.finite:
        return "entropy printed for a truncated tree" if m else None
    if m is None:
        return "no entropy for a finite tree"
    h = float(m.group(1))
    matrix = markov_data(tree).matrix
    rho = max(abs(np.linalg.eigvals(matrix))) if matrix.size else 0.0
    want = math.log(rho) if rho > 1.0 else 0.0
    if abs(h - want) > 1e-6:
        return f"entropy {h} but log spectral radius {want}"
    upper = math.inf if case.degree == "inf" else math.log(int(case.degree))
    if not 0.0 <= h <= upper + 1e-12:
        return f"entropy {h} outside [0, log d]"
    if degree == 2 and kn.star_periodic:
        addr = internal_address(kn)
        if kneading_from_address(addr.entries) != kn:
            return f"address {addr} does not round-trip"
    return None


_HEADER = re.compile(r"stage=(\d+)\s+points=(\d+)\s+gaps=(\d+)")
_PN_KINDS = ("critical-point", "precritical", "critical-value")


def check_path(case: Case, out: str, ref: dict) -> Optional[str]:
    lines = out.splitlines()
    head = _HEADER.search(lines[0]) if lines else None
    if head is None:
        return "no path header"
    stage, points, gaps = map(int, head.groups())
    if stage != case.depth:
        return f"stage {stage}, asked for {case.depth}"
    rows = [ln.split() for ln in lines[2:]]
    if len(rows) != points:
        return f"header says {points} points, table has {len(rows)}"
    labels, pn = [], 0
    for row in rows:
        kind, label = row[1], row[4]
        pn += kind in _PN_KINDS
        if label != "-":
            labels.append(Fraction(label))
    if any(q.denominator & (q.denominator - 1) for q in labels):
        return "a label is not dyadic"
    if any(b <= a for a, b in zip(labels, labels[1:])):
        return "labels are not strictly increasing"
    if labels[:1] != [0] or labels[-1:] != [1]:
        return "labels do not run from 0 to 1"
    # the count is proven only for gap-free paths
    if gaps == 0 and pn != 2 ** (stage - 1) + 1:
        return f"{pn} points at stage {stage} without gaps"
    return None


CHECKS = {"tree-sweep": check_tree, "classify-sweep": check_classify,
          "path-deep": check_path}
