"""Exact structural quantities with witnesses.

Toughness, scattering number, vertex connectivity, independence number.
All ratio comparisons use fractions.Fraction; nothing here ever touches a
float except the math.inf sentinel for complete graphs, which is only ever
compared, never computed with.

Complete multipartite inputs get closed-form answers: removing anything that
leaves vertices in two different parts keeps the graph connected, so every
cutset leaves a remainder inside a single part and the optima are attained
at full parts.  That structured route is what makes the 11-tough acceptance
instance (clique joined to two isolated vertices, n = 24) tractable, where
blind subset enumeration would pay for 2^24 masks.

Every other graph goes through one cutset enumerator, by subset size from
kappa up, as no smaller set is a cutset; a sweep stops at the first size
where even min(n - k, alpha) components, the most any set of size k can
leave, could not beat the incumbent.  Toughness and scattering share one
sweep that keeps both incumbents and stops where both stop rules hold;
``verify_tough`` runs its own.  Each witness is the first optimal cutset in
(size, lexicographic) order.

The shared sweep, kappa's pair flows, the multipartite decomposition and
alpha each keep their last result (``lru_cache(maxsize=1)``), so a metrics
line computes each once.  That is sound: a ``Graph`` is immutable and
hashes by value, the key is every argument, graph and cap alike, caps are
checked before a memo is read, and exceptions are never cached.

Vertex connectivity runs unit max flows on the vertex-split digraph, whose
residual graph is held as one int mask per node: a pair's flow starts from
its paths through common neighbours, augmenting paths come from a BFS over
masks, and augmenting flips bits.  Even's bound limits the flows to pairs
whose smaller vertex is among the first kappa + 1, and a pair stops once
its flow reaches the best cut so far.  None of this changes the cut that is
returned: each pair's cut is the one nearest to its smaller vertex, which
every maximum flow determines alike, and the pair that supplies the answer
is still the first pair, in lexicographic order, whose cut has kappa
vertices (see ``connectivity``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .graph import Graph, bit, bits, reach
# multipartite_decompose stays bound: the benchmark harness times it by this name
from .recognition import Multipartition, multipartite_decompose, multipartite_parts  # noqa: F401

INF = math.inf

DEFAULT_SUBSET_CAP = 24
DEFAULT_INDEPENDENCE_CAP = 64


class OracleLimitExceeded(Exception):
    """An exact solver was asked to run beyond its configured size cap."""

    def __init__(self, stage: str):
        super().__init__(stage)
        self.stage = stage


@dataclass(frozen=True)
class ToughnessWitness:
    """Cutset whose removal shatters the graph too cheaply: |S|/c(G-S) < t."""

    cutset: int
    component_count: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.cutset.bit_count(), self.component_count)


@dataclass(frozen=True)
class ScatteringSet:
    cutset: int
    value: int


@lru_cache(maxsize=1)
def _largest_part(g: Graph) -> int | None:
    """Largest part of a complete multipartite graph; None for other graphs."""
    parts = multipartite_parts(g)
    return Multipartition(parts).largest_part() if parts is not None else None


def _cutsets(g: Graph, stop):
    """Every cutset S of a non-complete g as (|S|, S, c(G - S)), by size and
    then in lexicographic order.  No cutset has fewer than kappa vertices, so
    the sizes start at kappa.  ``stop(k, room)`` is asked before each size k
    and ends the enumeration when true; room = min(n - k, alpha) bounds
    c(G - S) for every S of size k, since one vertex from each component of
    G - S is an independent set (Chvatal 1973).  Both bounds grow weaker
    with k, so a stop test that holds at k holds at every larger size.
    Callers check their size caps first; alpha's cap cannot bind, and up to
    n = 64 it keeps the key of a plain ``independence(g)``."""
    n = g.n
    kappa, _ = _pair_flows(g)
    alpha, _ = independence(g) if n <= DEFAULT_INDEPENDENCE_CAP else independence(g, cap=n)
    singletons = [1 << v for v in range(n)]
    for k in range(kappa, n - 1):
        if stop(k, min(n - k, alpha)):
            return
        for s in map(sum, combinations(singletons, k)):
            c = g.component_count(s)
            if c >= 2:
                yield k, s, c


@lru_cache(maxsize=1)
def _optima(g: Graph):
    """(toughness, witness, scattering, set) of a non-complete,
    non-multipartite g from one sweep.  An incumbent is replaced only on a
    strict improvement: a smaller |S|/c, by cross-multiplication, or a
    larger c - |S|.  Each stop rule rules out a strict improvement at its
    size and every later one, so stopping where both hold leaves each
    incumbent the first optimal cutset in (size, lexicographic) order."""
    tk = tc = ts = 0  # toughness incumbent tk/tc, cutset ts
    sv = ss = None  # scattering incumbent c - |S|, cutset ss

    def stop(k, room):
        return sv is not None and k * tc >= room * tk and room - k <= sv

    for k, s, c in _cutsets(g, stop):
        if sv is None or k * tc < tk * c:
            tk, tc, ts = k, c, s
        if sv is None or c - k > sv:
            sv, ss = c - k, s
    assert sv is not None  # noncomplete graphs always have a cutset
    return Fraction(tk, tc), ToughnessWitness(ts, tc), sv, ScatteringSet(ss, sv)


def toughness(g: Graph, cap: int = DEFAULT_SUBSET_CAP):
    """Exact min of |S|/c(G-S) over cutsets, with an optimal witness.

    Returns (math.inf, None) for complete graphs and the closed form for
    complete multipartite ones; past the size cap it raises.  Every other
    graph reads the memoized sweep of ``_optima``, shared with ``scattering``,
    whose witness is the first optimal cutset in (size, lexicographic) order.
    """
    n = g.n
    if g.is_complete():
        return INF, None
    part = _largest_part(g)
    if part is not None:
        c = part.bit_count()
        witness = ToughnessWitness(cutset=g.full & ~part, component_count=c)
        return Fraction(n - c, c), witness
    if n > cap:
        raise OracleLimitExceeded("toughness")
    return _optima(g)[:2]


def _probe_cuts(g: Graph, t) -> ToughnessWitness | None:
    """The empty set and every open neighbourhood, as violator candidates."""
    c = g.component_count(0)
    if c >= 2 and Fraction(0, c) < t:
        return ToughnessWitness(0, c)
    for v in range(g.n):
        s = g.adj[v]
        c = g.component_count(s)
        if c >= 2 and Fraction(s.bit_count(), c) < t:
            return ToughnessWitness(s, c)
    return None


def _part_violator(g: Graph, t, part: int) -> ToughnessWitness | None:
    """Closed form on a complete multipartite graph with largest part
    ``part``: removing everything else is the cheapest cut."""
    c = part.bit_count()
    if Fraction(g.n - c, c) < t:
        return ToughnessWitness(g.full & ~part, c)
    return None


def probe_tough(g: Graph, t) -> ToughnessWitness | None:
    """Cheap, incomplete violator search: the empty set, every open
    neighborhood, and the closed multipartite form when it applies.

    None means nothing was found, not that the graph is t-tough.
    """
    if g.is_complete():
        return None
    probe = _probe_cuts(g, t)
    if probe is not None:
        return probe
    part = _largest_part(g)
    return None if part is None else _part_violator(g, t, part)


def verify_tough(g: Graph, t: Fraction, cap: int = DEFAULT_SUBSET_CAP):
    """None if no cutset S has |S|/c(G-S) < t; otherwise a violating witness.

    Probes run before the cap check, so a violator can be reported even on
    graphs too large for the exhaustive sweep.  The probes are those of
    ``probe_tough``, with the multipartite decomposition done once.
    """
    if g.is_complete():
        return None
    probe = _probe_cuts(g, t)
    if probe is not None:
        return probe
    part = _largest_part(g)
    if part is not None:
        return _part_violator(g, t, part)  # the closed form is exhaustive
    if g.n > cap:
        raise OracleLimitExceeded("verify-tough")
    # a violator of size k needs c > k/t, so k/room >= t rules it out
    for k, s, c in _cutsets(g, lambda k, room: Fraction(k, room) >= t):
        if Fraction(k, c) < t:
            return ToughnessWitness(s, c)
    return None


def scattering(g: Graph, cap: int = DEFAULT_SUBSET_CAP):
    """Exact max of c(G-S) - |S| over cutsets, with a scattering set.

    Returns (math.inf, None) for complete graphs and the closed form for
    complete multipartite ones; past the size cap it raises.  Every other
    graph reads the memoized sweep of ``_optima``, shared with ``toughness``.
    """
    n = g.n
    if g.is_complete():
        return INF, None
    part = _largest_part(g)
    if part is not None:
        c = part.bit_count()
        cutset = g.full & ~part
        return 2 * c - n, ScatteringSet(cutset, 2 * c - n)
    if n > cap:
        raise OracleLimitExceeded("scattering")
    return _optima(g)[2:]


# --- vertex connectivity via max flow ----------------------------------------

def _split_residual(g: Graph) -> list[int]:
    """Residual arcs of the flow-free vertex-split digraph, one mask per node.

    Node 2v is v_in and 2v+1 is v_out.  v_in -> v_out has capacity one and
    v_out -> w_in, for every edge vw, is uncapacitated, so a minimum cut
    crosses vertex arcs only.
    """
    res = []
    for v in range(g.n):
        res.append(1 << (2 * v + 1))
        res.append(sum(1 << (2 * w) for w in bits(g.adj[v])))
    return res


def _min_vertex_cut_pair(base: list[int], s: int, t: int, limit: int) -> int | None:
    """Mask of the minimum vertex cut separating non-adjacent s and t that
    lies nearest to s, or None once ``limit`` disjoint s-t paths are found.

    ``base`` is ``_split_residual`` of the graph.  The flow starts with one
    unit on each path s - w - t through a common neighbour w; these paths
    are disjoint.  Augmenting paths come from a BFS over residual masks, and
    augmenting flips bits: a unit arc (vertex arcs, and reversed edge arcs)
    moves to the other direction, while an uncapacitated edge arc stays and
    gains its reverse.  Each vertex carries at most one unit, so one bit per
    direction holds the whole residual.  The cut is the set of vertices
    whose in-node is reachable from s in the final residual graph and whose
    out-node is not; that set is the same for every maximum flow, whatever
    flow it started from and whatever order the augmentations take.
    """
    res = base[:]
    source, sink = 2 * s + 1, 2 * t
    sink_bit = 1 << sink
    common = base[source] & base[sink + 1]  # in-nodes of common neighbours
    flow = common.bit_count()
    if flow >= limit:
        return None
    res[sink] |= common << 1
    while common:
        low = common & -common
        w_in = low.bit_length() - 1
        res[w_in] = 1 << source
        res[w_in + 1] |= low
        common ^= low
    while True:
        layers = []
        seen = frontier = 1 << source
        while frontier and not seen & sink_bit:
            layers.append(frontier)
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= res[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        if not seen & sink_bit:
            break
        flow += 1
        if flow >= limit:
            return None
        y = sink
        for layer in reversed(layers):
            while True:  # a node of the previous layer with an arc into y
                low = layer & -layer
                x = low.bit_length() - 1
                if res[x] >> y & 1:
                    break
                layer ^= low
            res[y] |= low
            if not x & 1 or y == x - 1:  # a unit arc; edge arcs v_out -> w_in stay
                res[x] &= ~(1 << y)
            y = x
    cut = 0
    for v in range(len(base) // 2):
        if seen >> (2 * v) & 3 == 1:
            cut |= bit(v)
    return cut


@lru_cache(maxsize=1)
def _pair_flows(g: Graph):
    """(kappa, cut) of a non-complete graph: the cut is that of the first
    non-adjacent pair (s, t), in lexicographic order, whose pair cut has
    kappa vertices.

    Even's bound (SIAM J. Comput. 1975) ends the pair loop once s exceeds
    the best cut size.  That first pair has s <= kappa: a minimum cut C has
    kappa vertices, so some i <= kappa lies outside it, and i with a vertex
    of another component of G - C is a pair with smaller vertex at most i
    whose cut has kappa vertices.  A pair stops augmenting once its flow
    reaches the best cut size, since it can then no longer beat it.  The
    best cut is replaced only on a strict improvement, so the cut returned
    is the one a loop over every non-adjacent pair would return.
    """
    n = g.n
    base = _split_residual(g)
    best_cut, size = None, n
    for s in range(n):
        if s > size:
            break
        others = (g.full & ~g.adj[s] & ~bit(s)) >> (s + 1) << (s + 1)
        for t in bits(others):
            cut = _min_vertex_cut_pair(base, s, t, size)
            if cut is not None:
                best_cut, size = cut, cut.bit_count()
    assert best_cut is not None
    return size, best_cut


def connectivity(g: Graph):
    """(kappa, minimum cutset mask) with the n-1 convention for complete graphs.

    Complete multipartite graphs give the closed form, every other graph the
    cut of ``_pair_flows``, which is empty on a disconnected graph.
    """
    n = g.n
    if g.is_complete():
        return max(n - 1, 0), None
    part = _largest_part(g)
    if part is not None:
        return n - part.bit_count(), g.full & ~part
    return _pair_flows(g)


@lru_cache(maxsize=1)
def independence(g: Graph, cap: int = DEFAULT_INDEPENDENCE_CAP):
    """Exact independence number and one maximum independent set (as a mask).

    An independent set of g is a clique of the complement, so it lives
    inside one connected component of the complement.  Those components
    come from ``reach`` over the complement's rows, in order of minimum
    vertex, and branch-and-bound runs on g's own rows within each one (for
    dense graphs they are tiny).  The size cap applies to each component,
    and the last result is kept, keyed by the arguments as passed.
    """
    co = [g.full & ~row & ~bit(v) for v, row in enumerate(g.adj)]
    best_size, best_set = 0, 0
    remaining = g.full
    while remaining:
        part = reach(co, remaining & -remaining, remaining)
        remaining ^= part
        if part.bit_count() <= best_size:
            continue
        size, found = _mis_branch_bound(g.adj, part, cap)
        if size > best_size:
            best_size, best_set = size, found
    return best_size, best_set


def _mis_branch_bound(adj, part: int, cap: int):
    """(size, mask) of a maximum independent set inside the vertex mask
    ``part``, with ``adj`` the graph's neighbour masks; past ``cap`` vertices
    it raises with stage "independence".  The incumbent starts as the greedy
    set over ascending ids, and each branch takes a maximum-degree candidate
    (smallest id on ties), which fixes the set returned."""
    if part.bit_count() > cap:
        raise OracleLimitExceeded("independence")
    seed, candidates = 0, part
    while candidates:
        low = candidates & -candidates
        seed |= low
        candidates &= ~(adj[low.bit_length() - 1] | low)
    best_size, best_set = seed.bit_count(), seed

    def cover_bound(candidates: int) -> int:
        # a clique contributes at most one vertex to an independent set, so
        # a greedy clique cover of the candidates bounds what is reachable
        count = 0
        rem = candidates
        while rem:
            v = (rem & -rem).bit_length() - 1
            grow = adj[v] & rem
            rem &= ~bit(v)
            while grow:
                u = (grow & -grow).bit_length() - 1
                rem &= ~bit(u)
                grow &= adj[u] & rem
            count += 1
        return count

    def expand(candidates: int, current: int, size: int):
        nonlocal best_size, best_set
        if size + candidates.bit_count() <= best_size:
            return
        if candidates == 0:
            best_size, best_set = size, current
            return
        if size + cover_bound(candidates) <= best_size:
            return
        # branch on a maximum-degree candidate (smallest id on ties)
        pivot, pivot_deg = -1, -1
        for v in bits(candidates):
            d = (adj[v] & candidates).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        expand(candidates & ~(adj[pivot] | bit(pivot)), current | bit(pivot), size + 1)
        expand(candidates & ~bit(pivot), current, size)

    expand(part, 0, 0)
    return best_size, best_set


def is_independent(g: Graph, s: int) -> bool:
    return all(g.adj[v] & s == 0 for v in bits(s))


def validate_toughness_witness(g: Graph, w: ToughnessWitness, t) -> bool:
    """Checker-grade validation: recomputes c(G - cutset) and the exact ratio."""
    if w.cutset & ~g.full:
        return False
    c = g.component_count(w.cutset)
    if c != w.component_count or c < 2:
        return False
    return Fraction(w.cutset.bit_count(), c) < t


def validate_scattering_set(g: Graph, s: ScatteringSet) -> bool:
    if s.cutset & ~g.full:
        return False
    c = g.component_count(s.cutset)
    return c >= 2 and c - s.cutset.bit_count() == s.value


def witness_from_independent_set(g: Graph, indep: int, t) -> ToughnessWitness | None:
    """Toughness witness from an independent set larger than n/(t+1).

    Removing N(A) isolates each vertex of A, so the ratio is at most
    (n - |A|)/|A| < t.  Returns None when the candidate fails validation
    (only possible when |A| < 2 or A is not independent).
    """
    k = indep.bit_count()
    if k < 2 or not is_independent(g, indep):
        return None
    cutset = g.set_neighborhood(indep)
    c = g.component_count(cutset)
    w = ToughnessWitness(cutset, c)
    return w if validate_toughness_witness(g, w, t) else None
