"""Hubbard trees as finite graphs spanned by the critical orbit.

The tree is grown point by point: the attachment site of a new point is
found by walking the current tree with a tripod-meet oracle on
itineraries.  The meet recursion works directly on sequences, so it is
independent of the tree state; the tree is just a cache of its answers.
One walk serves exact and truncated points alike; on a truncation it
also stops with the prefix its trusted symbols certify when a point runs
out of symbols or the walk runs out of budget, and at the degenerate
point when two distinct truncations read the wildcard together.

A truncation is one point with every point whose itinerary extends it or
is extended by it (``same_point``); the insertion walk tests this only at
the vertex where it stops, and so names that vertex in a tie.  A walk on
an exact tree starts at the critical point ``*nu``, in the middle of the
tree, and a walk on a truncated tree at the endpoint ``nu``, which is what
makes its tie the vertex the walk stops at.

For star-periodic kneading sequences the lower sequence's orbit is
inserted as well; an edge is a Fatou interval exactly when its endpoints
have diff = INF (no precritical point ever separates them).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
    A recurrence returns the input it repeats, if one has never read the
    wildcard: a replacement puts in *nu, which reads it next, so that
    input was never replaced, emitted its own letters and is the answer
    ``w[:prev] (w[prev:])^inf``, already interned.  Two such inputs would
    be one point, which ends the walk at its first step.

    Truncated input (a prefix point, or a prefix nu) walks the same way
    and has three more exits, each returning what the trusted symbols
    certify: a point that runs out of symbols, or a walk that exceeds
    its budget, gives the prefix emitted so far; two distinct points both
    reading the wildcard give that point (the tripod is degenerate).
    """
    # Sequences are interned, exact and truncated alike, so identity is
    # equality.
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
    # seen is keyed on id(), so every slot must stay alive for the whole
    # walk: else a new tail could reuse a freed slot's address and fake a
    # recurrence.  Every slot is an input, *nu (held by nu) or the tail
    # cached on an earlier slot.  The intern table holds sequences weakly
    # and a call moves its arguments into the callee, so an input passed
    # as a temporary would be freed once a, b and c are rebound below;
    # args keeps the inputs, and through their tails every later slot.
    args = (a, b, c)
    pure = 7  # bit 1 << i: slot i has not read the wildcard yet
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
            # no known input reaches this exit: the truncated meets of
            # test_meet_budget_headroom use at most half their budget
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
                    if pure:
                        # a pure slot emitted its own letters and its state
                        # repeats, so it is w[:prev] (w[prev:])^inf itself
                        return args[pure >> 1]
                    return EPSeq(tuple(w[:prev]), tuple(w[prev:]), degree)
                seen[key] = len(w)
            if ha is star:
                x, y = hb, hc
                pure &= 6
            elif hb is star:
                x, y = ha, hc
                pure &= 5
            else:
                x, y = ha, hb
                pure &= 3
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
    best a truncation can certify).  Two vertices that differ only after
    a truncation's last letter are both one point with it (a tie), and
    ``HubbardTree._walk`` names the one it stops at."""
    if x is y:
        return True
    if x.exact:
        if y.exact:
            return False  # interned: distinct exact points differ
        x, y = y, x
    # x is a truncation; the wildcard is a singleton equal only to itself
    ys = y.letters(len(x.pre))
    return x.pre[:len(ys)] == ys


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
        # the marked points: nu, and *nu when it is on the orbit
        self.postcritical: Set[EPSeq] = {self.nu}
        if kneading.star_periodic:
            self.postcritical.add(self.crit)
        # the cap, n or half a prefix, that stopped growth; None: finite
        self.truncation: Optional[int] = None
        # the lower sequence whose orbit build_tree inserted, if it did
        self.omega: Optional[EPSeq] = None

    # -- inspection --------------------------------------------------------

    @property
    def degree(self):
        return self.nu.degree

    @property
    def finite(self) -> bool:
        return self.truncation is None

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
        t.postcritical = set(self.postcritical)
        t.truncation = self.truncation
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
        """Locate the attachment of p: ('existing', v) if p is the vertex
        v, ('interior', (u, v)) if p subdivides edge (u, v),
        ('branch', (u, v, m)) if p hangs off a new vertex m interior to
        (u, v), or ('at', v) if p hangs off the existing vertex v.

        p is v if it is that object, or if the walk stops at v and
        same_point(p, v); no other vertex is tested.  The argument: while
        p is one point with v, a meet reads p's letters where it would
        read v's, so each step toward v gives a meet that is one point
        with the next vertex, and at v every meet is one point with v.
        It is not a proof over every exit of ``meet``; the test
        test_walk_stops_at_the_vertex_the_scan_finds guards it with a
        scan of every vertex beside each walk.  In a tie (see
        ``same_point``) p is the vertex the walk stops at.

        That argument is made for a walk from the endpoint nu, where every
        walk on a truncated tree starts.  On an exact tree each point is
        one interned object with one place, which a walk finds from any
        vertex, so it starts at *nu: nu is an endpoint, *nu sits in the
        middle, and a wrong direction at *nu costs a one-step meet, since
        the first letters differ.  A walk from *nu may name an edge in the
        other orientation than one from nu would.
        """
        if p in self.adj:
            return ("existing", p)
        cur = self.crit if self.nu.exact else self.nu
        prev = None
        cap = 4 * len(self.adj) + 8
        for _ in range(cap):
            for u in self.adj[cur]:
                if u is prev:
                    continue
                m = meet(p, cur, u, self.kneading)
                if same_point(m, cur):
                    continue
                if same_point(m, u):
                    prev, cur = cur, u
                    break
                if same_point(m, p):
                    return ("interior", (cur, u))
                return ("branch", (cur, u, m))
            else:  # no neighbour leads on: p is cur, or hangs off it
                return ("existing", cur) if same_point(p, cur) else ("at", cur)
        raise MeetInconsistency("insertion walk failed to terminate")

    def insert_point(self, p: EPSeq, postcritical: bool = False):
        """Attach p to the tree, and mark the vertex it is if postcritical;
        idempotent.  Returns (vertex, how) where how is 'existing',
        'interior', or 'pendant'."""
        kind, data = self._walk(p)
        v = data if kind == "existing" else p
        if kind == "interior":
            self._subdivide(*data, p)
        elif kind == "branch":
            u, w, m = data
            if m not in self.adj:  # truncated inputs may rediscover a vertex
                self._subdivide(u, w, m)
            self.adj[m].append(p)
            self.adj[p] = [m]
        elif kind == "at":
            self.adj[data].append(p)
            self.adj[p] = [data]
        if postcritical:
            self.postcritical.add(v)
        return v, "pendant" if kind in ("branch", "at") else kind


def vertex_order(tree: HubbardTree
                 ) -> Tuple[Dict[EPSeq, int], Dict[EPSeq, EPSeq]]:
    """Deterministic ids, and each vertex's parent, both in id order: ids
    run breadth-first from nu, neighbour expansion in lexicographic
    itinerary order (letters by value, wildcard last).  A parent's id is
    less than its child's, so edge i, oriented (parent, child), is the
    edge above the vertex with id i + 1."""
    key = functools.cmp_to_key(seq_cmp)
    order: Dict[EPSeq, int] = {tree.nu: 0}
    parent: Dict[EPSeq, EPSeq] = {}
    queue = [tree.nu]
    while queue:
        nxt = []
        for u in queue:
            # seq_cmp has no ties, so sorting just these gives the same ids
            new = [v for v in tree.adj[u] if v not in order]
            if len(new) > 1:
                new.sort(key=key)
            for v in new:
                order[v] = len(order)
                parent[v] = u
            nxt += new
        queue = nxt
    return order, parent


# ---------------------------------------------------------------------------
# building


def build_tree(kneading: KneadingSequence, n: Optional[int] = None
               ) -> HubbardTree:
    """The tree spanned by the critical point and orbit points 1 to n.

    Without n the input sets the growth: a star-periodic sequence of
    period p grows to point p - 1, any other exact sequence to its finite
    tree, and a prefix to half its length.  Star-periodic trees are
    decorated with the lower sequence's orbit, whose edges are the Fatou
    intervals; that lower sequence is kept as ``tree.omega``.
    """
    tree = HubbardTree(kneading)
    seq = kneading.seq

    if kneading.star_periodic:
        p = kneading.period
        limit = p - 1 if n is None else min(n, p - 1)
        for k in range(1, limit + 1):
            tree.insert_point(seq.shift(k), postcritical=True)
        if limit >= p - 1:
            tree.omega = lower_sequence(kneading)
            for s in tree.omega.orbit():
                tree.insert_point(s)
        else:
            tree.truncation = limit
        return tree

    if seq.exact:
        # with n, every point to n is a vertex and point n + 1 says whether
        # the tree is finite; without, growth ends at the first point on
        # the tree, by point len(pre) + len(per), which is point len(pre)
        cap = n if n is not None else len(seq.pre) + len(seq.per)
        for k in range(1, cap + 1):
            _, how = tree.insert_point(seq.shift(k), postcritical=True)
            if how != "pendant" and n is None:
                return tree
        if tree._walk(seq.shift(n + 1))[0] in ("branch", "at"):
            tree.truncation = n
        return tree

    # prefix input: insert orbit points while enough symbols remain
    cap = len(seq.pre) // 2 if n is None else max(0, min(n, len(seq.pre) // 2))
    for k in range(1, cap + 1):
        tree.insert_point(seq.shift(k), postcritical=True)
    tree.truncation = cap
    return tree


# ---------------------------------------------------------------------------
# Markov data


@dataclass
class MarkovData:
    """The edges of a sigma-closed refinement, numbered as in
    vertex_order, and images[i], the edges the image of edge i covers."""

    tree: HubbardTree
    edge_list: List[Tuple[EPSeq, EPSeq]]
    images: List[List[int]]

    @property
    def rows(self) -> List[List[int]]:
        """Dense counts: rows[i][j] is how often image i covers edge j."""
        n = len(self.images)
        return [[image.count(j) for j in range(n)] for image in self.images]

    @property
    def matrix(self):
        """The counts as a new int64 numpy array; needs numpy."""
        import numpy as np

        return np.array(self.rows, dtype=np.int64)


def sigma_closure(tree: HubbardTree, points: Sequence[EPSeq] = ()
                  ) -> HubbardTree:
    """The tree with the points inserted and, if it is finite, its vertex
    set and marked points closed under the shift by two orbit walks: nu's
    whole orbit, inserted and marked, makes the tree forward invariant;
    then each given point's orbit is inserted until it reaches a vertex.
    That suffices, as the shift is injective near every point but *nu: a
    branch point maps to a branch point, a vertex (Bruin-Kaffl-Schleicher
    2009).  A vertex added by hand with insert_point is closed only if it
    is passed in points.  A truncated tree gets the points but is not
    closed.  The tree itself if that changes nothing, else a copy made at
    the first change (the input is untouched)."""
    t = tree

    def insert(s, marked):
        nonlocal t
        if t is tree:
            t = tree.copy()  # copy on the first change only
        t.insert_point(s, postcritical=marked)

    for s in t.nu.orbit() if t.finite else ():
        if s not in t.postcritical:
            insert(s, True)
    for p in points:
        for s in p.orbit() if t.finite else (p,):
            if s in t.adj:
                break
            insert(s, False)
    return t


def markov_data(tree: HubbardTree) -> MarkovData:
    """Refine to a sigma-closed vertex set and read off the edge images:
    each edge maps homeomorphically onto the path between its endpoint
    images, found by climbing from both toward nu, the end with the
    larger id first (an ancestor has the smaller id), until they meet."""
    if not tree.finite:
        raise TruncatedTree("Markov data requires a finite tree")
    t = sigma_closure(tree)
    order, parent = vertex_order(t)
    edge_list = [(u, v) for v, u in parent.items()]
    images = []
    for u, v in edge_list:
        x, y = u.tail(), v.tail()
        assert x is not y, "edge endpoints collapsed under sigma"
        image = []
        while x is not y:
            if order[x] < order[y]:
                x, y = y, x
            image.append(order[x] - 1)  # the edge above x
            x = parent[x]
        images.append(image)
    return MarkovData(tree=t, edge_list=edge_list, images=images)
