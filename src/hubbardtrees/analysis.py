"""Orbit classification, internal addresses, embeddability, core entropy.

Branch points and periodic orbits are analyzed on a sigma-closed
refinement of the tree, where the image of a local arm can be followed
exactly: the germ at x toward a neighbour u maps to the germ at sigma(x)
toward the first vertex on the path to sigma(u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .critpath import nu_chain
from .errors import (
    BadLeadingSymbol,
    CriticalOrbit,
    DepthBudgetExceeded,
    MeetInconsistency,
    NonIncreasingAddress,
    NotStarPeriodic,
    TruncatedTree,
    WrongDegree,
)
from .symbolic import (
    EPSeq,
    INF,
    KneadingSequence,
    STAR,
    diff,
    is_bifurcation,
    validate_kneading,
)
from .treebuild import HubbardTree, build_tree, markov_data, sigma_closure


# ---------------------------------------------------------------------------
# arms and valency


@dataclass(frozen=True)
class ValencyReport:
    value: int
    stable: bool
    vertices_used: int


def valency(tree: HubbardTree, tau: EPSeq) -> ValencyReport:
    """Number of global arms at tau in the tree spanned by the critical
    orbit and the orbit of tau.

    Every arm of a finite tree contains an endpoint, and endpoints are
    postcritical, so the critical-orbit span already separates all arms;
    the count is exact in finite mode and depth-limited otherwise.
    """
    t = sigma_closure(tree, [tau])
    return ValencyReport(value=t.degree_of(tau), stable=t.finite,
                         vertices_used=len(t.adj))


def germ_image(tree: HubbardTree, x: EPSeq, toward: EPSeq
               ) -> Tuple[EPSeq, EPSeq]:
    """One shift step of the local arm at x pointing toward the
    neighbouring vertex `toward`; requires a sigma-closed vertex set."""
    sx, su = x.tail(), toward.tail()
    if sx == su:
        raise MeetInconsistency("edge collapsed under the shift")
    path = tree.path_between(sx, su)
    return sx, path[1]


def first_return_arm_map(tree: HubbardTree, tau: EPSeq, period: int
                         ) -> Dict[EPSeq, EPSeq]:
    """Where the first-return map sends each local arm at tau, as a map
    on neighbouring vertices."""
    out = {}
    for u in tree.neighbors(tau):
        x, t = tau, u
        for _ in range(period):
            x, t = germ_image(tree, x, t)
        assert x == tau, "first return did not close up"
        out[u] = t
    return out


# ---------------------------------------------------------------------------
# periodic orbits


@dataclass(frozen=True)
class OrbitReport:
    characteristic: Optional[EPSeq]
    period: int
    arms: int
    kind: str  # "endpoints" | "primitive" | "satellite" | "evil"


def _orbit_of(nu: KneadingSequence, tau: EPSeq) -> List[EPSeq]:
    """The orbit of tau, which must be periodic and off nu's orbit."""
    if tau.contains_star() or any(s == tau for s in nu.seq.orbit()):
        raise CriticalOrbit("the critical orbit itself is not classified here")
    if tau.pre:
        raise CriticalOrbit("orbit classification requires a periodic point")
    return tau.orbit()


def characteristic_point(tree: HubbardTree, tau: EPSeq) -> Optional[EPSeq]:
    """The orbit point nearest nu on the path to *nu, if every other orbit
    point lies beyond it, so that it separates the orbit and *nu from nu;
    None otherwise, as for orbits of endpoints.  Read off the tree, with
    the whole orbit passed to sigma_closure if the tree lacks a point."""
    orbit = _orbit_of(tree.kneading, tau)
    if not all(s in tree.adj for s in orbit):
        tree = sigma_closure(tree, orbit)
    path = tree.path_between(tree.nu, tree.crit)
    char = next((v for v in path if v in orbit), None)
    # no other orbit point is on nu's side of char, found in one traversal
    side, todo = {char, tree.nu}, [tree.nu]
    while todo:
        for u in tree.adj[todo.pop()]:
            if u not in side:
                side.add(u)
                todo.append(u)
    return char if side.isdisjoint(set(orbit) - {char}) else None


def classify_orbit(tree: HubbardTree, tau: EPSeq) -> OrbitReport:
    """Arm count and first-return arm behaviour of the orbit of tau in
    the finite tree closed with tau, whose orbit the closure walks."""
    if not tree.finite:
        raise TruncatedTree("orbit classification requires a finite tree")
    nu = tree.kneading
    if not nu.exact:
        raise DepthBudgetExceeded("orbit classification needs an exact nu")
    orbit = _orbit_of(nu, tau)
    period = len(orbit)
    tree = sigma_closure(tree, [tau])

    if all(tree.degree_of(s) == 1 for s in orbit):
        return OrbitReport(characteristic=None, period=period, arms=1,
                           kind="endpoints")

    char = characteristic_point(tree, tau)
    if char is None:
        raise MeetInconsistency("non-endpoint orbit without characteristic point")
    arms = tree.degree_of(char)
    perm = first_return_arm_map(tree, char, period)
    assert set(perm.values()) == set(perm), \
        "first-return arm map is not a bijection"

    crit_arm = tree.path_between(char, tree.crit)[1]
    kind = _orbit_kind(perm, arms, crit_arm)
    return OrbitReport(characteristic=char, period=period, arms=arms, kind=kind)


def _orbit_kind(perm: Dict, arms: int, crit_arm) -> str:
    fixed = {u for u, v in perm.items() if u == v}
    # cycle structure of the permutation
    def is_single_cycle(keys):
        if not keys:
            return False
        start = next(iter(keys))
        seen, cur = set(), start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur]
        return len(seen) == len(keys) and set(keys) == seen

    if arms == 2 and len(fixed) == 2:
        return "primitive"
    if is_single_cycle(list(perm)):
        return "satellite"
    # the critical arm is fixed, so the others map among themselves
    if fixed == {crit_arm} and arms >= 3 and is_single_cycle(
            [u for u in perm if u != crit_arm]):
        return "evil"
    raise MeetInconsistency(f"arm permutation fits no orbit type: {perm}")


@dataclass(frozen=True)
class BranchPoint:
    point: EPSeq
    valency: int
    kind: str  # "periodic" | "preperiodic" | "precritical" | "critical-orbit"
    steps_to_cycle: int = 0
    orbit: Optional[OrbitReport] = None
    depth_limited: bool = False


def enumerate_branch_points(tree: HubbardTree) -> List[BranchPoint]:
    """All branch points of the (sigma-closed refinement of the) tree,
    labelled periodic, preperiodic, or precritical.  Each periodic orbit
    is classified once by classify_orbit, on a finite tree: the closed
    tree itself or, for an exact sequence's tree cut at n, nu's finite
    tree build_tree(nu), built and closed once when an orbit first needs
    it.  The orbits of a prefix nu are not classified.  Results from a
    truncated tree carry the depth_limited flag."""
    t = sigma_closure(tree)
    nu = t.kneading
    limited = not tree.finite
    host = t if tree.finite else None  # built only when an orbit needs it
    labels: Dict[frozenset, Tuple[str, Optional[OrbitReport], bool]] = {}
    out = []
    for v in t.vertices():
        deg = t.degree_of(v)
        if deg < 3:
            continue
        if v.contains_star():
            out.append(BranchPoint(v, deg, "precritical", depth_limited=limited))
            continue
        if not v.exact:
            out.append(BranchPoint(v, deg, "preperiodic", depth_limited=True))
            continue
        steps = len(v.pre)
        if steps == 0:
            key = frozenset(v.orbit())
            if not nu.exact:
                # the vertex is exactly periodic, its arm behaviour is not
                # certifiable
                labels[key] = ("periodic", None, True)
            elif key not in labels:
                if host is None:
                    host = sigma_closure(build_tree(nu))
                try:
                    labels[key] = ("periodic", classify_orbit(host, v), limited)
                except CriticalOrbit:
                    labels[key] = ("critical-orbit", None, limited)
            kind, rep, lim = labels[key]
            out.append(BranchPoint(v, deg, kind, orbit=rep, depth_limited=lim))
        else:
            out.append(BranchPoint(v, deg, "preperiodic", steps_to_cycle=steps,
                                   depth_limited=limited))
    return out


# ---------------------------------------------------------------------------
# internal addresses (degree 2)


@dataclass(frozen=True)
class InternalAddress:
    entries: Tuple[int, ...]
    finite: bool
    valid_to: Optional[int] = None  # trusted prefix length, truncated input only

    def __str__(self):
        s = " -> ".join(str(e) for e in self.entries)
        return s if self.finite else s + " -> ..."


def _rho(s: EPSeq, gap: int) -> Optional[int]:
    """First k > gap with s_k differing from s_{k-gap}, wildcard strict;
    None when the self-comparison matches forever (or past the trusted
    window for truncated input)."""
    xs = s.letters(len(s.pre) + gap + len(s.per or ()))
    for k, (x, y) in enumerate(zip(xs[gap:], xs), gap + 1):
        if x != y:
            return k
    return None


def internal_address(s, max_entries: int = 32) -> InternalAddress:
    """1 -> S_1 -> S_2 -> ... by successive closest periodic approximants.

    Equivalent to the recursion through the periodic sequences varsigma_n:
    S_{n+1} is the first position where the sequence leaves the
    S_n-periodic pattern of its own prefix.  Comparisons treat the
    wildcard as different from both letters, so a star-periodic sequence
    of period p has a finite address ending in p.

    An address that ends at g says the sequence has period g from its
    first letter.  For an exact purely periodic sequence of period p,
    S_{n+1} - S_n depends only on S_n mod p, so the address ends at the
    first entry that is a multiple of p, within p entries, or never: its
    first max(max_entries, p) entries decide it.  A finite address is
    given in full; an infinite one, or a truncation's, is cut at
    max_entries.
    """
    if isinstance(s, KneadingSequence):
        if s.trivial:
            return InternalAddress((1,), True)
        s = s.seq
    if s.degree != 2:
        raise WrongDegree("internal addresses are implemented for degree 2")
    if s.exact and s.pure_periodic and s.per == (STAR,):
        return InternalAddress((1,), True)
    if s.head != 1:
        raise BadLeadingSymbol("internal addresses need sequences starting with 1")

    cap = max_entries
    if s.exact and s.pure_periodic:
        cap = max(max_entries, len(s.per))
    entries = [1]
    # ask whether the address has ended before stopping at the cap
    while (nxt := _rho(s, entries[-1])) is not None and len(entries) < cap:
        entries.append(nxt)
    if nxt is None and s.exact:
        return InternalAddress(tuple(entries), True)
    return InternalAddress(tuple(entries[:max_entries]), False,
                           valid_to=None if s.exact else len(s.pre))


def address_chain(entries: Sequence[int]) -> List[Tuple[int, ...]]:
    """The periodic words varsigma_n realizing an address, degree 2."""
    entries = list(entries)
    if not entries or entries[0] != 1 or any(
            b <= a for a, b in zip(entries, entries[1:])):
        raise NonIncreasingAddress(f"bad internal address {entries}")
    word = (1,)
    chain = [word]
    for s in entries[1:]:
        nxt = tuple(word[i % len(word)] for i in range(s))
        nxt = nxt[:-1] + (1 - nxt[-1],)
        word = nxt
        chain.append(word)
    return chain


def kneading_from_address(entries: Sequence[int]) -> KneadingSequence:
    """The star-periodic kneading sequence with the given finite internal
    address: the last approximant with its period-end letter replaced by
    the wildcard.  Round-trips with internal_address."""
    word = address_chain(entries)[-1]
    return validate_kneading(EPSeq((), word[:-1] + (STAR,), 2))


# ---------------------------------------------------------------------------
# bifurcation classes


@dataclass(frozen=True)
class BifurcationClass:
    kind: str  # "none" | "standard" | "non-standard"
    q: Optional[int] = None
    letter: Optional[int] = None
    base: Optional[KneadingSequence] = None


def classify_bifurcation(nu: KneadingSequence) -> BifurcationClass:
    """Standard iff the insertion recursion develops a gap, which for a
    bifurcation lies at nu: the one-pair refinement at nu (nu_chain) ends
    in a gap.  For degree 2 this provably agrees with the base period
    occurring in the internal address, and the agreement is asserted."""
    if not nu.star_periodic:
        raise NotStarPeriodic("bifurcation classes exist for star-periodic nu")
    bif = is_bifurcation(nu)
    if bif is None:
        return BifurcationClass("none")
    has_gap = nu_chain(nu)[1] is not None
    if nu.degree == 2:
        in_addr = bif.q in internal_address(nu).entries
        assert in_addr == has_gap, (
            f"gap criterion and address criterion disagree on {nu}"
        )
    kind = "standard" if has_gap else "non-standard"
    return BifurcationClass(kind, q=bif.q, letter=bif.letter, base=bif.base)


# ---------------------------------------------------------------------------
# embeddability


@dataclass(frozen=True)
class EmbeddingReport:
    admissible: bool
    count: int
    provisional: bool = False
    evil_orbits: Tuple[OrbitReport, ...] = ()
    satellite_arms: Tuple[int, ...] = ()


def embedding_report(tree: HubbardTree, branch_points: List[BranchPoint]
                     ) -> EmbeddingReport:
    """Plane-embeddability with dynamics respecting the cyclic order:
    admissible iff no periodic branch orbit is evil; the number of
    embeddings is the product of Euler's totient over the arm counts of
    the periodic branch orbits, read off enumerate_branch_points(tree)."""
    provisional = not tree.finite
    reports: Dict[frozenset, OrbitReport] = {}
    for bp in branch_points:
        if bp.kind == "periodic":
            key = frozenset(bp.point.orbit())
            rep = bp.orbit or OrbitReport(None, len(key), bp.valency, "unknown")
            reports.setdefault(key, rep)
    evil = tuple(r for r in reports.values() if r.kind == "evil")
    if evil:
        return EmbeddingReport(False, 0, provisional, evil_orbits=evil)
    arms = tuple(sorted(r.arms for r in reports.values()))
    count = 1
    for q in arms:
        count *= _totient(q)
    return EmbeddingReport(True, count, provisional, satellite_arms=arms)


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# core entropy


_PERRON_BUDGET = 100_000  # power steps per component; 888 suffice to period 12
_PERRON_BITS = 96  # bits of the smallest entry; 64 flickers near a midpoint


def perron_root(rows: List[List[int]]) -> float:
    """Spectral radius of a nonnegative integer matrix, correctly rounded.

    Row i of M lists each column j M[i][j] times, as MarkovData.images
    does.  The spectrum of M is the union of the spectra of the diagonal
    blocks of its strongly connected components (edge i -> j where
    M[i][j] > 0), so rho(M) is the maximum over components:

    - a component with no internal entry (a vertex without a loop) has
      rho = 0;
    - a non-trivial component whose internal rows all sum to 1 is a
      single cycle, a permutation block, with rho = 1 exactly;
    - every other component A is irreducible with integer row sums >= 1,
      not all equal to 1, so rho(A) > 1.  Power iteration runs on the
      primitive A + I over positive integer vectors v, cut back after
      each step to _PERRON_BITS bits in the smallest entry.  For any
      positive v the Collatz-Wielandt bracket gives
      min_i (Av)_i / v_i <= rho(A) <= max_i (Av)_i / v_i.  int / int
      is correctly rounded and rounding is monotone, so once every ratio
      rounds to the same float, that float is rho(A) correctly rounded.
      The bracket is tested every 4th step.

    Zero-entropy trees thus get exactly 1.0, even where their matrix has
    a defective eigenvalue 1.  A component whose bracket does not round
    to one float within 100,000 power steps raises DepthBudgetExceeded.
    """
    rho = 0.0
    for comp in _strong_components(rows):
        pos = {g: k for k, g in enumerate(comp)}
        cols = [[pos[j] for j in rows[g] if j in pos] for g in comp]
        sums = {len(c) for c in cols}
        if sums == {0}:
            continue
        rho = max(rho, 1.0 if sums == {1} else _irreducible_root(cols))
    return rho


def _strong_components(succ: List[List[int]]) -> List[List[int]]:
    """Strongly connected components of the graph i -> succ[i]
    (Tarjan's algorithm with an explicit stack)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def _irreducible_root(cols: List[List[int]]) -> float:
    """rho(A) of an irreducible block with rho > 1, given as the column
    lists of perron_root, by the certified iteration described there."""
    cols = [c + [k] for k, c in enumerate(cols)]  # A + I
    v = [1 << _PERRON_BITS] * len(cols)
    for step in range(1, _PERRON_BUDGET + 1):
        w = [sum(map(v.__getitem__, c)) for c in cols]
        if step % 4 == 0:
            ratios = {(x - y) / y for x, y in zip(w, v)}
            if len(ratios) == 1:
                return ratios.pop()
        # cut by the smallest entry, so every ratio keeps _PERRON_BITS
        # bits however widely the Perron vector spreads; w >= v: shift >= 0
        shift = min(w).bit_length() - _PERRON_BITS
        v = [x >> shift for x in w]
    raise DepthBudgetExceeded(
        f"Perron iteration did not converge in {_PERRON_BUDGET} steps "
        f"on a {len(cols)}-edge component"
    )


def core_entropy(tree: HubbardTree) -> float:
    """log of the spectral radius of the edge transition matrix."""
    if not tree.finite:
        raise TruncatedTree("core entropy requires a finite tree")
    rho = perron_root(markov_data(tree).images)
    return math.log(rho) if rho > 1.0 else 0.0


# ---------------------------------------------------------------------------
# recurrence


@dataclass(frozen=True)
class RecurrenceProbe:
    rows: Tuple[Tuple[int, object], ...]  # (k, diff position or INF)
    verdict: str
    witnessed_depth: int
    exact: bool


def recurrence_probe(nu: KneadingSequence, horizon: int) -> RecurrenceProbe:
    """diff(nu, sigma^k nu) for k = 1..horizon.

    The verdict is only ever a lower bound: finite evidence cannot prove
    non-recurrence.  Periodic sequences are reported as such.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    s = nu.seq
    rows = []
    witnessed = 0
    periodic = False
    for k in range(1, horizon + 1):
        d = diff(s, s.shift(k))
        rows.append((k, d))
        if d is INF and s.exact:
            periodic = True
        elif d is not INF:
            witnessed = max(witnessed, d - 1)
    if periodic:
        verdict = "periodic"
    elif s.exact:
        verdict = f"recurrence witnessed to depth {witnessed}"
    else:
        verdict = (f"recurrence witnessed to depth {witnessed} "
                   f"(valid to depth {len(s.shift(horizon).pre)})")
    return RecurrenceProbe(tuple(rows), verdict, witnessed, s.exact)
