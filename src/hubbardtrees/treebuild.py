"""Hubbard trees as finite graphs spanned by the critical orbit.

The tree is grown point by point: the attachment site of a new point is
found by walking the current tree with a tripod-meet oracle on
itineraries.  The meet recursion works directly on sequences, so it is
independent of the tree state; the tree is just a cache of its answers.
One walk serves exact and truncated points alike; on a truncation it
also stops with the prefix its trusted symbols certify when a point runs
out of symbols or the walk runs out of budget, and at the degenerate
point when two distinct truncations read the wildcard together.

For star-periodic kneading sequences the lower sequence's orbit is
inserted as well; an edge is a Fatou interval exactly when its endpoints
have diff = INF (no precritical point ever separates them).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .critpath import lower_sequence
from .errors import (
    MeetInconsistency,
    TrivialKneadingSequence,
    TruncatedTree,
    VertexNotFound,
)
from .symbolic import (
    EPSeq,
    INF,
    KneadingSequence,
    STAR,
    diff,
    precritical,
    seq_cmp,
)


# ---------------------------------------------------------------------------
# tripod meet


def _prepend(word, s: EPSeq) -> EPSeq:
    return EPSeq(tuple(word) + s.pre, s.per, s.degree) if word else s


def meet(a: EPSeq, b: EPSeq, c: EPSeq, nu: KneadingSequence) -> EPSeq:
    """The branch point of the tripod spanned by three points of H(nu).

    Walks the three itineraries in lockstep, emitting the common letter
    while one exists (the wildcard matches anything; shifting a point
    sitting at the critical point moves it to the critical value).  When
    one point separates from the other two, it is replaced by the
    current-level critical point.  Distinct letters everywhere mean the
    tripod branches at the current-level critical point itself.  A
    recurring state means the emitted word is the meet's eventually
    periodic itinerary.

    States are recorded only at steps where some point reads the
    wildcard, and for exact input only once the step count passes the
    longest preperiod.  Every cycle of states holds such a step, so the
    walk stops one cycle after the first state it records on the cycle,
    while short walks (most end at the critical point) record nothing.

    Truncated input (a prefix point, or a prefix nu) walks the same way
    and has three more exits, each returning what the trusted symbols
    certify: a point that runs out of symbols, or a walk that exceeds
    its budget, gives the prefix emitted so far; two distinct points both
    reading the wildcard give that point (the tripod is degenerate).
    """
    # Sequences are interned, exact and truncated alike, so identity is
    # equality.  Every slot is an input, the critical point or the cached
    # tail of an earlier slot, so all stay alive during the walk and id()
    # names a point throughout.
    nu_seq = nu.seq
    degree = a.degree
    exact = a.exact and b.exact and c.exact and nu_seq.exact
    if exact:
        lcm = math.lcm(len(a.per), len(b.per), len(c.per), len(nu_seq.per))
        maxpre = max(len(a.pre), len(b.pre), len(c.pre), len(nu_seq.pre)) + 1
        budget = (maxpre + lcm) * 8 + 64
    else:
        # States are recorded from the first step, so the walk ends by
        # itself; the budget only guards it, and leaves room for the
        # periods of exact slots as the exact budget does.
        maxpre = 0
        known = max(_known(a), _known(b), _known(c), _known(nu_seq))
        budget = (known + 1) * 8 + 64
    crit = nu.critical_point()
    star = STAR
    w: list = []
    seen: dict = {}
    steps = 0
    while True:
        if a is b or a is c:
            return _prepend(w, a)
        if b is c:
            return _prepend(w, b)
        steps += 1
        if steps > budget:
            if exact:
                raise MeetInconsistency(
                    f"tripod recursion failed to settle within {budget} steps"
                )
            return EPSeq(w, None, degree)

        ha, hb, hc = a.head, b.head, c.head
        if ha is None or hb is None or hc is None:
            return EPSeq(w, None, degree)  # out of trusted symbols
        if ha is star or hb is star or hc is star:
            # A replacement puts *nu, which reads the wildcard next, into
            # a slot.  So a cycle of states without a wildcard step makes
            # no replacement and shifts three points through equal letters
            # forever: they would be one point, which ends the walk above.
            # Recording here alone therefore catches every recurrence.
            if steps > maxpre:
                key = (id(a), id(b), id(c))
                prev = seen.get(key)
                if prev is not None:
                    return EPSeq(tuple(w[:prev]), tuple(w[prev:]), degree)
                seen[key] = len(w)
            if ha is star:
                x, y = hb, hc
            elif hb is star:
                x, y = ha, hc
            else:
                x, y = ha, hb
            if x is star or y is star:
                # two distinct slots at the critical point: only truncated
                # points can be, and the tripod is degenerate
                return _prepend(w, a if ha is star else b)
            if x != y:
                # the critical point itself separates the other two
                return precritical(w, nu)
            w.append(x)
        elif ha == hb:
            if hb != hc:
                c = crit
                continue
            w.append(ha)
        elif ha == hc:
            b = crit
            continue
        elif hb == hc:
            a = crit
            continue
        else:
            return precritical(w, nu)
        # shift all three; the tail cache is read directly, filled on a miss
        a = a._tail or a.tail()
        b = b._tail or b.tail()
        c = c._tail or c.tail()


def _known(s: EPSeq) -> int:
    return len(s.pre) + len(s.per or ())


def same_point(x: EPSeq, y: EPSeq) -> bool:
    """Identity for tree points.  Exact sequences are interned, so they
    are one point iff they are one object; a truncated word is identified
    with a point whose itinerary extends it, or is extended by it (the
    best a truncation can certify)."""
    if x is y:
        return True
    if x.exact:
        if y.exact:
            return False  # interned: distinct exact points differ
        x, y = y, x
    if y.exact:
        # the wildcard is a singleton equal only to itself
        return all(y.at(i) == s for i, s in enumerate(x.pre, 1))
    n = min(len(x.pre), len(y.pre))
    return x.pre[:n] == y.pre[:n]


# ---------------------------------------------------------------------------
# the tree


class HubbardTree:
    """A finite tree over itinerary-labelled vertices.

    Construction mutates a single instance; finished trees are treated as
    immutable and may be shared freely.
    """

    def __init__(self, kneading: KneadingSequence):
        if kneading.trivial:
            raise TrivialKneadingSequence("the trivial sequence has no tree")
        self.kneading = kneading
        self.nu = kneading.seq
        self.crit = kneading.critical_point()
        self.adj: Dict[EPSeq, List[EPSeq]] = {
            self.nu: [self.crit],
            self.crit: [self.nu],
        }
        self.postcritical: Dict[EPSeq, int] = {self.nu: 0}
        if kneading.star_periodic:
            self.postcritical[self.crit] = kneading.period - 1
        self.mode: Tuple[str, Optional[int]] = ("finite", None)
        # the lower sequence whose orbit build_tree inserted, if it did
        self.omega: Optional[EPSeq] = None

    # -- inspection --------------------------------------------------------

    @property
    def degree(self):
        return self.nu.degree

    @property
    def finite(self) -> bool:
        return self.mode[0] == "finite"

    def vertices(self) -> List[EPSeq]:
        return list(self.adj)

    def neighbors(self, v: EPSeq) -> List[EPSeq]:
        try:
            return self.adj[v]
        except KeyError:
            raise VertexNotFound(repr(v)) from None

    def degree_of(self, v: EPSeq) -> int:
        return len(self.neighbors(v))

    def edges(self) -> List[Tuple[EPSeq, EPSeq]]:
        out = []
        done = set()
        for u in self.adj:
            done.add(u)
            for v in self.adj[u]:
                if v not in done:
                    out.append((u, v))
        return out

    def endpoints(self) -> List[EPSeq]:
        return [v for v in self.adj if len(self.adj[v]) == 1]

    def branch_vertices(self) -> List[EPSeq]:
        return [v for v in self.adj if len(self.adj[v]) >= 3]

    def is_fatou_edge(self, u: EPSeq, v: EPSeq) -> bool:
        return u.exact and v.exact and diff(u, v) is INF

    def copy(self) -> "HubbardTree":
        t = HubbardTree.__new__(HubbardTree)
        t.kneading = self.kneading
        t.nu = self.nu
        t.crit = self.crit
        t.adj = {v: list(nbrs) for v, nbrs in self.adj.items()}
        t.postcritical = dict(self.postcritical)
        t.mode = self.mode
        t.omega = self.omega
        return t

    # -- paths ---------------------------------------------------------------

    def path_between(self, a: EPSeq, b: EPSeq) -> List[EPSeq]:
        """The unique vertex path from a to b."""
        if a not in self.adj:
            raise VertexNotFound(repr(a))
        if b not in self.adj:
            raise VertexNotFound(repr(b))
        if a == b:
            return [a]
        parent = {a: None}
        queue = [a]
        while queue:
            nxt = []
            for u in queue:
                for v in self.adj[u]:
                    if v not in parent:
                        parent[v] = u
                        if v == b:
                            path = [v]
                            while parent[path[-1]] is not None:
                                path.append(parent[path[-1]])
                            return list(reversed(path))
                        nxt.append(v)
            queue = nxt
        raise MeetInconsistency("tree is disconnected")  # pragma: no cover

    # -- construction --------------------------------------------------------

    def _subdivide(self, u: EPSeq, v: EPSeq, m: EPSeq) -> None:
        self.adj[u][self.adj[u].index(v)] = m
        self.adj[v][self.adj[v].index(u)] = m
        self.adj[m] = [u, v]

    def _walk(self, p: EPSeq):
        """Locate the attachment of p: ('existing', v) if p is a vertex,
        ('interior', (u, v)) if p subdivides edge (u, v),
        ('branch', (u, v, m)) if p hangs off a new vertex m interior to
        (u, v), or ('at', v) if p hangs off the existing vertex v."""
        if p.exact and self.nu.exact:
            # a tree over an exact sequence holds exact points only
            if p in self.adj:
                return ("existing", p)
        else:
            for v in self.adj:
                if same_point(p, v):
                    return ("existing", v)
        cur = self.nu
        prev = None
        cap = 4 * len(self.adj) + 8
        for _ in range(cap):
            advanced = False
            for u in self.adj[cur]:
                if prev is not None and u == prev:
                    continue
                m = meet(p, cur, u, self.kneading)
                if same_point(m, cur):
                    continue
                if same_point(m, u):
                    prev, cur = cur, u
                    advanced = True
                    break
                if same_point(m, p):
                    return ("interior", (cur, u))
                return ("branch", (cur, u, m))
            if not advanced:
                return ("at", cur)
        raise MeetInconsistency("insertion walk failed to terminate")

    def insert_point(self, p: EPSeq, postcritical: Optional[int] = None):
        """Attach p to the tree; idempotent.  Returns (vertex, how) where
        how is 'existing', 'interior', or 'pendant'."""
        kind, data = self._walk(p)
        if kind == "existing":
            v = data
        elif kind == "interior":
            u, w = data
            self._subdivide(u, w, p)
            v = p
        elif kind == "branch":
            u, w, m = data
            if m in self.adj:  # truncated inputs may rediscover a vertex
                self.adj[m].append(p)
            else:
                self._subdivide(u, w, m)
                self.adj[m].append(p)
            self.adj[p] = [m]
            v = p
        else:
            anchor = data
            self.adj[anchor].append(p)
            self.adj[p] = [anchor]
            v = p
        if postcritical is not None:
            old = self.postcritical.get(v)
            if old is None or postcritical < old:
                self.postcritical[v] = postcritical
        how = {"existing": "existing", "interior": "interior",
               "branch": "pendant", "at": "pendant"}[kind]
        return v, how

    def locate(self, p: EPSeq) -> str:
        """'vertex', 'interior', or 'off' without mutating the tree."""
        kind, _ = self._walk(p)
        return {"existing": "vertex", "interior": "interior",
                "branch": "off", "at": "off"}[kind]

    # -- vertex kinds ----------------------------------------------------------

    def kind_of(self, v: EPSeq) -> str:
        if v == self.nu:
            return "critical-value"
        if v == self.crit:
            return "critical-point"
        if v in self.postcritical:
            return "postcritical"
        if v.contains_star():
            return "precritical"
        if any(self.is_fatou_edge(v, u) for u in self.adj[v]):
            return "fatou-boundary"
        return "plain"


def vertex_order(tree: HubbardTree) -> Dict[EPSeq, int]:
    """Deterministic ids: breadth-first from the critical value, neighbour
    expansion in lexicographic itinerary order (letters by value, wildcard
    last)."""
    key = functools.cmp_to_key(seq_cmp)
    order: Dict[EPSeq, int] = {}
    queue = [tree.nu]
    order[tree.nu] = 0
    while queue:
        nxt = []
        for u in queue:
            for v in sorted(tree.adj[u], key=key):
                if v not in order:
                    order[v] = len(order)
                    nxt.append(v)
        queue = nxt
    return order


# ---------------------------------------------------------------------------
# building


def build_tree(kneading: KneadingSequence, n: Optional[int] = None, *,
               max_points: int = 64) -> HubbardTree:
    """The tree spanned by the critical point and orbit points.

    Auto mode (n=None) grows until the tree provably stabilizes: for a
    star-periodic sequence of period p that is at n = p - 1; otherwise
    when the next orbit point already lies on the tree; a truncation
    ceiling applies to prefix inputs and runaway growth.  Star-periodic
    trees are decorated with the lower sequence's orbit, whose edges are
    the Fatou intervals; that lower sequence is kept as ``tree.omega``.
    """
    tree = HubbardTree(kneading)
    seq = kneading.seq

    if kneading.star_periodic:
        p = kneading.period
        limit = p - 1 if n is None else min(n, p - 1)
        for k in range(1, limit + 1):
            tree.insert_point(seq.shift(k), postcritical=k)
        if limit >= p - 1:
            tree.mode = ("finite", None)
            tree.omega = lower_sequence(kneading)
            for s in tree.omega.orbit():
                tree.insert_point(s)
        else:
            tree.mode = ("truncated", limit)
        return tree

    if seq.exact:
        cap = n if n is not None else max_points
        k = 1
        tree.mode = ("truncated", cap)
        while k <= cap:
            _, how = tree.insert_point(seq.shift(k), postcritical=k)
            if how in ("existing", "interior") and n is None:
                tree.mode = ("finite", None)
                break
            k += 1
        else:
            if n is not None and tree.locate(seq.shift(n + 1)) != "off":
                tree.mode = ("finite", None)
            else:
                tree.mode = ("truncated", cap)
        return tree

    # prefix input: insert orbit points while enough symbols remain
    cap = max(0, min(n if n is not None else max_points, len(seq.pre) // 2))
    for k in range(1, cap + 1):
        tree.insert_point(seq.shift(k), postcritical=k)
    tree.mode = ("truncated", cap)
    return tree


# ---------------------------------------------------------------------------
# Markov data


@dataclass
class MarkovData:
    """Edge transition counts of a sigma-closed refinement: rows[i][j]
    counts how often the image of edge i covers edge j."""

    tree: HubbardTree
    edge_list: List[Tuple[EPSeq, EPSeq]]
    rows: List[List[int]]

    @property
    def matrix(self):
        """The counts as a new int64 numpy array; needs numpy."""
        import numpy as np

        return np.array(self.rows, dtype=np.int64)


def sigma_closure(tree: HubbardTree, cap: int = 4096) -> HubbardTree:
    """The tree itself if its vertex set and postcritical labels are
    closed under the shift, else a closed copy (the input is untouched)."""
    t = tree
    stable = False
    while not stable:
        stable = True
        for v in list(t.adj):
            if len(t.adj) > cap:
                raise MeetInconsistency("sigma closure exploded; likely a bug")
            s = v.tail()
            pc = t.postcritical.get(v)
            child_pc = pc + 1 if pc is not None else None
            old = t.postcritical.get(s)
            if s in t.adj and (child_pc is None
                               or old is not None and old <= child_pc):
                continue
            if t is tree:
                t = tree.copy()  # copy on the first change only
            if s not in t.adj:
                t.insert_point(s, postcritical=child_pc)
            else:
                t.postcritical[s] = child_pc
            stable = False
    return t


def markov_data(tree: HubbardTree) -> MarkovData:
    """Refine to a sigma-closed vertex set and assemble the edge
    transition matrix: each edge maps homeomorphically onto the path
    between its endpoint images."""
    if not tree.finite:
        raise TruncatedTree("Markov data requires a finite tree")
    t = sigma_closure(tree)
    order = vertex_order(t)
    edge_list = sorted(
        (tuple(sorted(e, key=lambda v: order[v])) for e in t.edges()),
        key=lambda e: (order[e[0]], order[e[1]]),
    )
    index = {frozenset(e): i for i, e in enumerate(edge_list)}
    rows = [[0] * len(edge_list) for _ in edge_list]
    for u, v in edge_list:
        su, sv = u.tail(), v.tail()
        assert su != sv, "edge endpoints collapsed under sigma"
        path = t.path_between(su, sv)
        row = rows[index[frozenset((u, v))]]
        for x, y in zip(path, path[1:]):
            row[index[frozenset((x, y))]] += 1
    return MarkovData(tree=t, edge_list=edge_list, rows=rows)
