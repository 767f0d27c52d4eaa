"""Spans around the calls into each ``hubbardtrees`` module's public functions.

The benchmark wraps the functions from its own files: every name bound to
a traced function in a loaded ``hubbardtrees`` module is rebound to the
wrapper, so calls between library modules are seen too.  A span is
``(id, name, start, end, parent, input)``; spans are kept in memory and
written out once, and the per-layer table is derived from them.

The traced pass is a plain loop of ``main()`` calls, so one span stack
serves; the ``--batch`` pass, which uses the CLI's thread pool, is not
traced.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

# (module, attribute path) of every traced function.  A layer is a module.
TRACED = (
    ("symbolic", "diff"),
    ("symbolic", "validate_kneading"),
    ("symbolic", "parse_sequence"),
    ("critpath", "build_critical_path"),
    ("critpath", "build_pn"),
    ("critpath", "lower_sequence"),
    ("treebuild", "meet"),
    ("treebuild", "HubbardTree.insert_point"),
    ("treebuild", "build_tree"),
    ("treebuild", "sigma_closure"),
    ("treebuild", "markov_data"),
    ("analysis", "perron_root"),
    ("analysis", "classify_orbit"),
    ("analysis", "enumerate_branch_points"),
    ("analysis", "embedding_report"),
    ("analysis", "internal_address"),
    ("export", "tree_to_json"),
    ("generators", "make"),
    ("cli", "main"),
)

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self.input_id: Optional[int] = None
        self._ids = itertools.count()
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.input_id))

        return traced

    def install(self):
        """Wrap every traced function; returns the wrapped ``cli.main``
        and the original ``treebuild.meet``.  A function a later version
        no longer has is listed in ``absent`` and skipped."""
        originals = {}
        for module, attr in TRACED:
            mod = sys.modules.get(f"hubbardtrees.{module}")
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, fname, None) if owner is not None else None
            name = f"{module}.{attr}"
            if orig is None:
                self.absent.append(name)
                continue
            originals[name] = orig
            wrapper = self.wrap(name, orig)
            if owner_name:
                setattr(owner, fname, wrapper)
                continue
            for m in list(sys.modules.values()):
                if m is None or m.__name__.split(".")[0] != "hubbardtrees":
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:  # also under an alias, as cli imports make
                        setattr(m, key, wrapper)
        main = sys.modules["hubbardtrees.cli"].main
        return main, originals.get("treebuild.meet")

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "input"],
                       "spans": self.spans}, fh)

    def table(self) -> Dict[str, Dict[str, float]]:
        """calls, total_s and self_s per traced name.

        total_s counts a span only when no ancestor has the same name, so
        recursion is not counted twice; self_s is a span's duration minus
        its children's."""
        by_id = {s[0]: s for s in self.spans}
        child_s: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = {f"{m}.{a}": {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for m, a in TRACED}
        for sid, name, start, end, parent, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_s[sid]
            p = parent
            while p is not None and by_id[p][1] != name:
                p = by_id[p][4]
            if p is None:
                row["total_s"] += end - start
        return out
