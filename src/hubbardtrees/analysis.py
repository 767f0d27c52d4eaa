"""Orbit classification, internal addresses, embeddability, core entropy.

Branch points and periodic orbits are analyzed on a sigma-closed
refinement of the tree, where the image of a local arm can be followed
exactly: the germ at x toward a neighbour u maps to the germ at sigma(x)
toward the first vertex on the path to sigma(u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .critpath import build_pn
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
    AnySeq,
    diff_within,
    is_bifurcation,
    validate_kneading,
)
from .treebuild import HubbardTree, build_tree, markov_data, meet, sigma_closure


# ---------------------------------------------------------------------------
# arms and valency


@dataclass(frozen=True)
class ValencyReport:
    value: int
    stable: bool
    vertices_used: int


def _closed_tree_with(nu: KneadingSequence, extra: Sequence[AnySeq] = ()
                      ) -> HubbardTree:
    t = build_tree(nu)
    for s in extra:
        t.insert_point(s)
    if t.finite:
        t = sigma_closure(t)
    return t


def valency(nu: KneadingSequence, tau: AnySeq, budget: Optional[int] = None
            ) -> ValencyReport:
    """Number of global arms at tau in the tree spanned by the critical
    orbit and the orbit of tau.

    Every arm of a finite tree contains an endpoint, and endpoints are
    postcritical, so the critical-orbit span already separates all arms;
    the count is exact in finite mode and depth-limited otherwise.
    """
    t = build_tree(nu, budget) if budget is not None else build_tree(nu)
    t.insert_point(tau)
    if t.finite:
        t = sigma_closure(t)
    return ValencyReport(value=t.degree_of(tau), stable=t.finite,
                         vertices_used=len(t.adj))


def germ_image(tree: HubbardTree, x: AnySeq, toward: AnySeq
               ) -> Tuple[AnySeq, AnySeq]:
    """One shift step of the local arm at x pointing toward the
    neighbouring vertex `toward`; requires a sigma-closed vertex set."""
    sx, su = x.tail(), toward.tail()
    if sx == su:
        raise MeetInconsistency("edge collapsed under the shift")
    path = tree.path_between(sx, su)
    return sx, path[1]


def first_return_arm_map(tree: HubbardTree, tau: AnySeq, period: int
                         ) -> Dict[AnySeq, AnySeq]:
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
    characteristic: Optional[AnySeq]
    period: int
    arms: int
    kind: str  # "endpoints" | "primitive" | "satellite" | "evil"


def _orbit_of(tau: EPSeq) -> List[EPSeq]:
    if tau.pre:
        raise CriticalOrbit("orbit classification requires a periodic point")
    return tau.orbit()


def _check_not_critical(nu: KneadingSequence, tau: EPSeq) -> None:
    if tau.contains_star() or any(s == tau for s in nu.seq.orbit()):
        raise CriticalOrbit("the critical orbit itself is not classified here")


def characteristic_point(nu: KneadingSequence, tau: EPSeq) -> Optional[EPSeq]:
    """The orbit point separating its whole orbit and the critical point
    from the critical value, verified exhaustively; None for orbits of
    endpoints."""
    _check_not_critical(nu, tau)
    orbit = _orbit_of(tau)
    crit = nu.critical_point()
    for cand in orbit:
        others = [s for s in orbit if s != cand] + [crit]
        if all(meet(nu.seq, cand, rho, nu) == cand for rho in others):
            return cand
    return None


def classify_orbit(nu: KneadingSequence, tau: EPSeq) -> OrbitReport:
    """Arm count and first-return arm behaviour of the orbit of tau."""
    if not nu.exact:
        raise DepthBudgetExceeded(
            "orbit classification needs an exact kneading sequence"
        )
    _check_not_critical(nu, tau)
    orbit = _orbit_of(tau)
    period = len(orbit)
    tree = _closed_tree_with(nu, orbit)

    if all(tree.degree_of(s) == 1 for s in orbit):
        return OrbitReport(characteristic=None, period=period, arms=1,
                           kind="endpoints")

    char = characteristic_point(nu, tau)
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
    if fixed == {crit_arm} and arms >= 3:
        others = [u for u in perm if u != crit_arm]
        sub = {u: perm[u] for u in others}
        start = others[0]
        seen, cur = set(), start
        while cur not in seen:
            seen.add(cur)
            cur = sub[cur]
        if len(seen) == len(others):
            return "evil"
    raise MeetInconsistency(f"arm permutation fits no orbit type: {perm}")


@dataclass(frozen=True)
class BranchPoint:
    point: AnySeq
    valency: int
    kind: str  # "periodic" | "preperiodic" | "precritical" | "critical-orbit"
    steps_to_cycle: int = 0
    orbit: Optional[OrbitReport] = None
    depth_limited: bool = False


def enumerate_branch_points(tree: HubbardTree) -> List[BranchPoint]:
    """All branch points of the (sigma-closed refinement of the) tree,
    labelled periodic, preperiodic, or precritical.  Results from a
    truncated tree carry the depth_limited flag."""
    t = sigma_closure(tree) if tree.finite else tree
    nu = t.kneading
    limited = not tree.finite
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
            try:
                rep = classify_orbit(nu, v)
                out.append(BranchPoint(v, deg, "periodic", orbit=rep,
                                       depth_limited=limited))
            except CriticalOrbit:
                out.append(BranchPoint(v, deg, "critical-orbit",
                                       depth_limited=limited))
            except DepthBudgetExceeded:
                # truncated input: periodicity of the vertex is exact, the
                # arm behaviour is not certifiable
                out.append(BranchPoint(v, deg, "periodic", depth_limited=True))
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


def _raw_ne(x, y) -> bool:
    # the wildcard counts as different from both letters here
    return x is not y and x != y


def _rho(s: AnySeq, gap: int) -> Optional[int]:
    """First k > gap with s_k differing from s_{k-gap}, wildcard strict;
    None when the self-comparison matches forever (or past the trusted
    window for truncated input)."""
    if s.exact:
        bound = len(s.pre) + gap + len(s.per)
    else:
        bound = len(s.word)
    for k in range(gap + 1, bound + 1):
        if _raw_ne(s.at(k), s.at(k - gap)):
            return k
    return None


def internal_address(s, max_entries: int = 32) -> InternalAddress:
    """1 -> S_1 -> S_2 -> ... by successive closest periodic approximants.

    Equivalent to the recursion through the periodic sequences varsigma_n:
    S_{n+1} is the first position where the sequence leaves the
    S_n-periodic pattern of its own prefix.  Comparisons treat the
    wildcard as different from both letters, so a star-periodic sequence
    of period p has a finite address ending in p.
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

    entries = [1]
    while len(entries) < max_entries:
        nxt = _rho(s, entries[-1])
        if nxt is None:
            if s.exact:
                return InternalAddress(tuple(entries), True)
            return InternalAddress(tuple(entries), False, valid_to=len(s.word))
        entries.append(nxt)
    return InternalAddress(tuple(entries), False,
                           valid_to=None if s.exact else len(s.word))


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
    """Standard iff the insertion recursion develops a gap (by stage p);
    for degree 2 this provably agrees with the base period occurring in
    the internal address, and the agreement is asserted."""
    if not nu.star_periodic:
        raise NotStarPeriodic("bifurcation classes exist for star-periodic nu")
    bif = is_bifurcation(nu)
    if bif is None:
        return BifurcationClass("none")
    has_gap = bool(build_pn(nu, nu.period).gaps)
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


def embedding_report(tree: HubbardTree) -> EmbeddingReport:
    """Plane-embeddability with dynamics respecting the cyclic order:
    admissible iff no periodic branch orbit is evil; the number of
    embeddings is the product of Euler's totient over the arm counts of
    the periodic branch orbits."""
    provisional = not tree.finite
    reports: Dict[frozenset, OrbitReport] = {}
    for bp in enumerate_branch_points(tree):
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


_PERRON_BUDGET = 100_000  # power steps per component; 699 suffice to period 12


def perron_root(matrix: np.ndarray) -> float:
    """Spectral radius of a nonnegative integer matrix.

    The spectrum of M is the union of the spectra of the diagonal blocks
    of its strongly connected components (edge i -> j where
    M[i, j] > 0), so rho(M) is the maximum over components:

    - a component with no internal entry (a vertex without a loop) has
      rho = 0;
    - a non-trivial component whose internal rows all sum to 1 is a
      single cycle, a permutation block, with rho = 1 exactly;
    - every other component A is irreducible with integer row sums >= 1,
      not all equal to 1, so rho(A) > 1.  Power iteration on A + I,
      which is primitive, stops when the Collatz-Wielandt bracket
      min_i (Bv)_i / v_i <= rho(B) <= max_i (Bv)_i / v_i of the positive
      iterate v closes to hi - lo <= 1e-13 hi, and returns its midpoint.
      The estimate is cross-checked against the same bracket computed in
      exact integer arithmetic.

    Zero-entropy trees thus get exactly 1.0, even where their matrix has
    a defective eigenvalue 1.  A component that does not converge within
    100,000 power steps raises DepthBudgetExceeded.
    """
    matrix = np.asarray(matrix)
    rho = 0.0
    succ = [np.flatnonzero(row).tolist() for row in matrix]
    for comp in _strong_components(succ):
        comp.sort()
        block = matrix[np.ix_(comp, comp)]
        if not block.any():
            continue
        if (block.sum(axis=1) == 1).all():
            rho = max(rho, 1.0)
        else:
            rho = max(rho, _irreducible_root(block))
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


def _irreducible_root(block: np.ndarray) -> float:
    """rho of an irreducible block with rho > 1, by power iteration on
    the primitive B = block + I until the float Collatz-Wielandt bracket
    of rho(B) closes."""
    b = block.astype(float) + np.eye(block.shape[0])
    v = np.ones(block.shape[0])
    for _ in range(_PERRON_BUDGET):
        w = b @ v
        ratios = w / v
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= 1e-13 * hi:
            break
        v = w / hi
    else:
        raise DepthBudgetExceeded(
            f"Perron iteration did not converge in {_PERRON_BUDGET} steps "
            f"on a {block.shape[0]}-edge component"
        )
    estimate = 0.5 * (lo + hi)
    exact_lo, exact_hi = _collatz_wielandt(block)
    if not (exact_lo - 1e-9 <= estimate <= exact_hi + 1e-9):
        raise MeetInconsistency(
            f"power iteration {estimate} escapes exact bracket "
            f"[{exact_lo}, {exact_hi}]"
        )
    return estimate - 1.0


def _collatz_wielandt(matrix: np.ndarray, iterations: int = 60
                      ) -> Tuple[float, float]:
    """Exact-arithmetic bracket for rho(M + I)."""
    n = matrix.shape[0]
    rows = [[(j, int(matrix[i, j]) + (i == j)) for j in range(n)
             if matrix[i, j] or i == j] for i in range(n)]
    w = [1] * n
    for _ in range(iterations):
        w = [sum(c * w[j] for j, c in rows[i]) for i in range(n)]
    nxt = [sum(c * w[j] for j, c in rows[i]) for i in range(n)]
    ratios = [Fraction(nxt[i], w[i]) for i in range(n)]
    return float(min(ratios)), float(max(ratios))


def core_entropy(tree: HubbardTree) -> float:
    """log of the spectral radius of the edge transition matrix."""
    if not tree.finite:
        raise TruncatedTree("core entropy requires a finite tree")
    rho = perron_root(markov_data(tree).matrix)
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
    window = INF
    for k in range(1, horizon + 1):
        d, win = diff_within(s, s.shift(k))
        window = min(window, win)
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
                   f"(valid to depth {int(window)})")
    return RecurrenceProbe(tuple(rows), verdict, witnessed, s.exact)
