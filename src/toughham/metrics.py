"""Exact structural quantities with witnesses.

Toughness, scattering number, vertex connectivity, independence number.
All ratio comparisons use fractions.Fraction; nothing here ever touches a
float except the math.inf sentinel for complete graphs, which is only ever
compared, never computed with.

Complete and complete multipartite inputs get closed-form answers:
removing anything that leaves vertices in two different parts keeps the
graph connected, so every cutset leaves a remainder inside a single part and
the optima are attained at full parts.  ``_closed`` recognises such a graph
once and holds its answers; toughness, scattering, connectivity,
``probe_tough`` and ``verify_tough`` all read them there.  That structured
route is what makes the 11-tough acceptance instance (clique joined to two
isolated vertices, n = 24) tractable, where blind subset enumeration would
pay for 2^24 masks.

Every other graph goes through one cutset enumerator, by subset size from
kappa up, as no smaller set is a cutset.  Its caller gives need(k), the
fewest components a cutset of size k must leave to matter, and the sweep
ends at the first size where need(k) exceeds min(n - k, alpha), the most
any set of size k can leave.  It visits separators only and counts
components for nothing else.  Let r be the smallest vertex outside a
cutset S and A its component in G - S: then A is connected, S holds every
vertex below r and every neighbour of A, and some vertex outside S is not
in A.  So the sweep grows each connected A from each r <= k by extension
sets and completes N(A), plus the vertices below r, to S with the other
vertices in every way that leaves one of them out; each cutset comes from
its own r and A once.  A branch stops growing A when a larger A would
leave fewer than need(k) components, when |B| + |A| + need(k) > n + 1 for
B = N(A) plus the vertices below r (each step takes at most one vertex off
B, and a cutset needs |B| <= k), when more than k vertices of B can no
longer join A (a counter, one step per vertex), or when A and B cover the
graph; no cutset that leaves need(k) components or more is skipped.
Toughness and scattering share one sweep that keeps both incumbents and
needs the fewer components that improve either; ``verify_tough`` runs its
own and needs those of a violator.  Within a size both prefer the most
components, and each witness is the first optimal cutset in (size,
lexicographic) order.

Connectivity and independence also answer for G[x], a vertex mask x in
G's own ids; x keeps the order of G[x]'s own ids, so every lowest-id or
lexicographic choice is the one on G[x] built as its own graph.

The shared sweep, kappa's pair flows, the closed forms of ``_closed`` and
alpha each keep their last result (``lru_cache(maxsize=1)``), so a metrics
line computes each once.  That is sound: a ``Graph`` is immutable and
hashes by value, the key is every argument (the helpers take x as a mask,
never None), the size caps are module constants, and exceptions are never
cached.

Vertex connectivity runs unit max flows on the vertex-split digraph, whose
residual graph is held as one int mask per node: a pair's flow starts from
its paths through common neighbours and then from disjoint paths
s - x - y - t taken greedily, both counted on the masks first, so a pair
they already bring to its limit copies no residual; augmenting paths come
from a BFS over masks, and augmenting flips bits.  On a dense graph the
two families carry nearly all of each pair's flow.  The best cut starts
at delta + 1 (kappa <= delta), Even's bound limits the flows to pairs
whose smaller vertex is at most the best cut, and a pair is skipped when
its common neighbours reach the best cut and stops once its flow does.
None of this changes the cut that is returned: each pair's cut is the
one nearest to its smaller vertex, which every maximum flow determines
alike, and the pair that supplies the answer is still the first pair, in
lexicographic order, whose cut has kappa vertices (see ``connectivity``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .graph import Graph, bit, bits, lex_key, reach
# multipartite_decompose stays bound: the benchmark harness times it by this name
from .recognition import Multipartition, multipartite_decompose, multipartite_parts  # noqa: F401

INF = math.inf

SUBSET_CAP = 24
INDEPENDENCE_CAP = 64


class OracleLimitExceeded(Exception):
    """An exact solver was asked to run beyond its size cap."""

    def __init__(self, stage: str):
        super().__init__(stage)
        self.stage = stage


class ToughnessWitness(NamedTuple):
    """Cutset whose removal shatters the graph too cheaply: |S|/c(G-S) < t."""

    cutset: int
    component_count: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.cutset.bit_count(), self.component_count)


class ScatteringSet(NamedTuple):
    cutset: int
    value: int


@lru_cache(maxsize=1)
def _closed(g: Graph, x: int):
    """(toughness, witness, scattering, set) of G[x] in closed form: (inf,
    None, inf, None) when G[x] is complete (its parts are single vertices),
    which has no cutset; when it is complete multipartite, with P a largest
    part and c = |P| >= 2, the cutset x - P leaving c isolated vertices;
    None otherwise."""
    parts = multipartite_parts(g, x)
    if parts is None:
        return None
    n = x.bit_count()
    if len(parts) == n:
        return INF, None, INF, None
    part = Multipartition(parts).largest_part()
    c, cutset = part.bit_count(), x & ~part
    return (Fraction(n - c, c), ToughnessWitness(cutset, c),
            2 * c - n, ScatteringSet(cutset, 2 * c - n))


def _cutsets(g: Graph, need):
    """The cutsets S of a non-complete g, one size at a time from kappa up,
    as (k, [(S, c(G - S)), ...]) in no set order within a size: every
    cutset with c(G - S) >= need(k) and possibly some with fewer.
    ``need(k)`` is asked before each size k, once the caller has seen the
    sizes below it; the sweep takes it as at least 2 and ends at the first
    k with need(k) > room = min(n - k, alpha), which bounds c(G - S) for
    every S of size k, since one vertex from each component of G - S is an
    independent set (Chvatal 1973).  With the callers' bounds, need(k) >
    room says room <= k*tc/tk and room <= sv + k for the incumbents of
    ``_optima`` (neither can improve) and room <= k/t for ``verify_tough``
    (no violator).  Their need never falls as k grows while the incumbent
    stands, and room never grows, so no later size has a cutset they need.
    Callers stop at SUBSET_CAP vertices first; alpha's larger cap cannot bind.

    Only cutsets are counted.  Let r be the smallest vertex outside a
    cutset S and A its component in G - S: A is connected, every vertex
    below r and every neighbour of A lies in S, and the rest of G - S is
    non-empty and has no neighbour of A.  So for each r <= k the sweep
    grows every connected A with smallest vertex r over the vertices above
    r by extension sets (ESU; Wernicke, IEEE/ACM TCBB 2006), which visits
    each such A once.  With base = N(A) plus the vertices below r and free
    the vertices in neither, each T of k - |base| free vertices gives the
    cutset base | T, as every A grown has |A| < n - k and so leaves a free
    vertex over (a base of exactly k vertices is its own cutset); S fixes
    r and A, so each cutset is found once.  A branch stops growing A when
      - |A| + need(k) > n - k: a cutset of size k with a larger A leaves
        at most n - k - |A| components besides A, fewer than need(k) (with
        need(k) = 2, no second component);
      - |base| + |A| + need(k) > n + 1: ext lies in base, so each vertex
        added to A takes at most one vertex off the boundary, and a base
        of at most k needs |base| - k more vertices in A than it has,
        which would leave fewer than need(k) components.  A step that
        would make such a child with a base of more than k is not taken,
        since that child neither yields nor grows;
      - the boundary vertices its branch can no longer add to A, those of
        base outside ext, number more than k: they stay in every base.
        Each step of the branch moves one vertex of ext there, so they
        are counted once per A and then one by one;
      - |base| - k > n - k - 1 - |A|, that is, no vertex is free: the
        branch can add at most n - k - 1 - |A| vertices to A.
    The last is tested on each A before it is grown.  So no cutset with
    c(G - S) >= need(k) is skipped: its A has |A| <= n - k + 1 - need(k)."""
    n, adj, count = g.n, g.adj, g.component_count
    kappa, _ = _pair_flows(g, g.full)
    alpha, _ = independence(g)

    def grow(size, ext, base, free):
        # size: |A|; ext: the vertices its branch may add next, all in base;
        # base: N(A) and the vertices below r; free: the rest, never empty
        rest = k - base.bit_count()
        if rest == 0:
            found.append((base, count(base)))
        elif rest > 0:
            for t in map(sum, combinations([1 << v for v in bits(free)], rest)):
                s = base | t
                found.append((s, count(s)))
        # a step whose w has more than spare exclusive neighbours makes a
        # child with |base| + |A| + need(k) > n + 1 and, as size + least
        # <= n - k past the test below, more than k vertices in base: it
        # neither yields nor grows, so the step is not taken
        spare = n + 1 - size - least - (k - rest)
        if spare < 0 or size + least > n - k:
            return
        fixed = (base & ~ext).bit_count()  # boundary this branch can no longer add
        while ext and fixed <= k:
            w = ext & -ext
            ext ^= w
            fixed += 1
            gain = adj[w.bit_length() - 1] & free  # w's exclusive neighbours
            if free != gain and gain.bit_count() <= spare:
                grow(size + 1, ext | gain, base ^ w | gain, free ^ gain)

    for k in range(kappa, n - 1):
        least = max(need(k), 2)  # a cutset leaves two components or more
        if least > min(n - k, alpha):
            return
        found = []
        for r in range(k + 1):
            base = adj[r] | (1 << r) - 1
            free = g.full & ~base & ~(1 << r)
            if free:
                grow(1, adj[r] >> r << r, base, free)
        yield k, found


@lru_cache(maxsize=1)
def _optima(g: Graph):
    """(toughness, witness, scattering, set) of a non-complete,
    non-multipartite g from one sweep.  An incumbent is replaced only on a
    strict improvement: a smaller |S|/c, by cross-multiplication, or a
    larger c - |S|.  Within a size both prefer the largest c, so a size
    that improves an incumbent gives it the lexicographically first cutset
    with that c.  need(k) is the fewest components that improve either
    incumbent at size k, and the sweep yields every cutset that leaves as
    many, so the cutsets that improve one are all there; a size that yields
    none takes c = 0 and improves nothing.  The sweep ends where neither
    can improve, which leaves each incumbent the first optimal cutset in
    (size, lexicographic) order."""
    tk = tc = ts = 0  # toughness incumbent tk/tc, cutset ts
    sv = ss = None  # scattering incumbent c - |S|, cutset ss

    def need(k):  # the fewest components that improve an incumbent
        return 2 if sv is None else min(k * tc // tk + 1 if tk else INF, sv + k + 1)

    for k, cuts in _cutsets(g, need):
        c = max((count for _, count in cuts), default=0)
        tough = sv is None or k * tc < tk * c
        scatter = sv is None or c - k > sv
        if tough or scatter:
            s = min((s for s, count in cuts if count == c), key=lex_key)
            if tough:
                tk, tc, ts = k, c, s
            if scatter:
                sv, ss = c - k, s
    assert sv is not None  # noncomplete graphs always have a cutset
    return Fraction(tk, tc), ToughnessWitness(ts, tc), sv, ScatteringSet(ss, sv)


def _exact(g: Graph, stage: str):
    """``_closed`` where it answers, else ``_optima`` within the size cap."""
    closed = _closed(g, g.full)
    if closed is not None:
        return closed
    if g.n > SUBSET_CAP:
        raise OracleLimitExceeded(stage)
    return _optima(g)


def toughness(g: Graph):
    """Exact min of |S|/c(G-S) over cutsets, with an optimal witness.

    Returns (math.inf, None) for complete graphs and the closed form for
    complete multipartite ones; past the size cap it raises.  Every other
    graph reads the memoized sweep of ``_optima``, shared with ``scattering``,
    whose witness is the first optimal cutset in (size, lexicographic) order.
    """
    return _exact(g, "toughness")[:2]


def probe_tough(g: Graph, t) -> ToughnessWitness | None:
    """Cheap, incomplete violator search: the empty set, every open
    neighborhood, and then the closed witness of ``_closed`` when it applies,
    where removing everything but the largest part is the cheapest cut.

    None means nothing was found, not that the graph is t-tough.
    """
    for s in (0, *g.adj):
        c = g.component_count(s)
        if c >= 2 and Fraction(s.bit_count(), c) < t:
            return ToughnessWitness(s, c)
    closed = _closed(g, g.full)
    return closed[1] if closed is not None and closed[0] < t else None


def verify_tough(g: Graph, t: Fraction):
    """None if no cutset S has |S|/c(G-S) < t; otherwise a violating witness.

    ``probe_tough`` runs before the cap check, so a violator can be
    reported even on graphs too large for the exhaustive sweep; on complete
    and complete multipartite graphs its answer is exhaustive.
    """
    probe = probe_tough(g, t)
    if probe is not None or _closed(g, g.full) is not None:
        return probe
    if g.n > SUBSET_CAP:
        raise OracleLimitExceeded("verify-tough")
    # a violator of size k needs c > k/t; no cutset has |S|/c < t <= 0
    for k, cuts in _cutsets(g, lambda k: k // t + 1 if t > 0 else INF):
        violators = [cut for cut in cuts if Fraction(k, cut[1]) < t]
        if violators:
            return ToughnessWitness(*min(violators, key=lambda cut: lex_key(cut[0])))
    return None


def scattering(g: Graph):
    """Exact max of c(G-S) - |S| over cutsets, with a scattering set.

    Returns (math.inf, None) for complete graphs and the closed form for
    complete multipartite ones; past the size cap it raises.  Every other
    graph reads the memoized sweep of ``_optima``, shared with ``toughness``.
    """
    return _exact(g, "scattering")[2:]


# --- vertex connectivity via max flow ----------------------------------------

def _split_residual(g: Graph, x: int) -> list[int]:
    """Residual of G[x]'s flow-free vertex-split digraph, one mask per node.

    Node 2v is v_in and 2v+1 is v_out.  v_in -> v_out has capacity one and
    v_out -> w_in, for every edge vw inside x, is uncapacitated, so a
    minimum cut crosses vertex arcs only.  No arc enters a vertex outside x.
    """
    res = []
    for v in range(g.n):
        res.append(1 << (2 * v + 1))
        res.append(int(bin(g.adj[v] & x)[2:], 4))  # bit w -> bit 2w
    return res


def _min_vertex_cut_pair(base: list[int], s: int, t: int, limit: int) -> int | None:
    """Mask of the minimum vertex cut separating non-adjacent s and t that
    lies nearest to s, or None once ``limit`` disjoint s-t paths are found.

    ``base`` is ``_split_residual`` of the graph.  The flow starts from two
    families of disjoint paths: s - w - t through each common neighbour w,
    then s - x - y - t taken greedily, lowest x first and for it the lowest
    unused y, with x a neighbour of s only, y one of t only and x ~ y.
    Both are counted on the masks, so a pair they already bring to
    ``limit`` returns None before any residual is written.  Augmenting
    paths come from a BFS over residual masks, and augmenting flips bits: a
    unit arc (vertex arcs, and reversed edge arcs) moves to the other
    direction, while an uncapacitated edge arc stays and gains its reverse.
    Each vertex carries at most one unit, so one bit per direction holds the
    whole residual.  The starting paths write only the arcs a BFS can use:
    the in-node of a neighbour of s is always reached straight from s_out,
    whose edge arcs stay, so its reverse vertex arc is never needed; the
    out-node of a neighbour of t that sends its unit to t has no residual
    arc into it but from the sink; and the BFS never expands the sink.  The
    cut is the set of vertices whose in-node is reachable from s in the
    final residual graph and whose out-node is not; that set is the same for
    every maximum flow, whatever flow it started from and whatever order the
    augmentations take.
    """
    source, sink = 2 * s + 1, 2 * t
    sink_bit = 1 << sink
    near, far = base[source], base[sink + 1]  # in-nodes of N(s) and of N(t)
    common = near & far
    flow = common.bit_count()
    free, hops = far & ~near, []
    xs = near & ~far
    while xs and flow < limit:
        low = xs & -xs
        x_in = low.bit_length() - 1
        ys = base[x_in + 1] & free
        if ys:
            y = ys & -ys
            free ^= y
            hops.append((x_in, y.bit_length() - 1))
            flow += 1
        xs ^= low
    if flow >= limit:
        return None
    res = base[:]
    while common:
        low = common & -common
        res[low.bit_length() - 1] = 1 << source
        common ^= low
    for x_in, y_in in hops:  # s_out -> x_in -> x_out -> y_in -> y_out -> t_in
        res[x_in] = 1 << source
        res[y_in] = 1 << (x_in + 1)
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
def _pair_flows(g: Graph, x: int):
    """(kappa, cut) of a non-complete G[x]: the cut is that of the first
    non-adjacent pair (s, t) of x, in lexicographic order, whose pair cut
    has kappa vertices.

    The best cut size starts at delta + 1, for delta the minimum degree
    inside x: a vertex of that degree has a non-neighbour, which its
    neighbours separate from it, so kappa <= delta (Whitney, Amer. J. Math.
    1932).  Even's bound (SIAM J. Comput. 1975) ends the pair loop once the
    rank of s in x exceeds the best cut size.  That first pair has rank(s)
    <= kappa: a minimum cut C has kappa vertices, so some i of rank at most
    kappa lies outside it, and i with a vertex of another component of
    G[x] - C is a pair with smaller vertex at most i whose cut has kappa
    vertices.  A pair is skipped when its common neighbours already number
    the best cut size, does not start when those and its greedy
    s - x - y - t paths reach it (see ``_min_vertex_cut_pair``), and stops
    augmenting once its flow does: its cut cannot beat the best one, which
    is replaced only on a strict improvement, so the cut returned is the
    one a loop over every non-adjacent pair would return.
    """
    adj = g.adj
    base = _split_residual(g, x)
    best_cut, size, left = None, len(adj), x
    while left:
        low = left & -left
        left ^= low
        d = (adj[low.bit_length() - 1] & x).bit_count()
        if d < size:
            size = d
    size += 1
    rank, left = 0, x
    while left and rank <= size:
        low = left & -left
        left ^= low  # now the vertices of x above s
        s = low.bit_length() - 1
        others = left & ~adj[s]
        while others:
            low = others & -others
            others ^= low
            t = low.bit_length() - 1
            if (adj[s] & adj[t] & x).bit_count() < size:  # else its s - w - t paths reach it
                cut = _min_vertex_cut_pair(base, s, t, size)
                if cut is not None:
                    best_cut, size = cut, cut.bit_count()
        rank += 1
    assert best_cut is not None
    return size, best_cut


def connectivity(g: Graph, x: int | None = None):
    """(kappa, minimum cutset mask) of G[x] (x defaults to every vertex),
    with the n-1 convention for complete graphs.

    Complete multipartite graphs give the cut of the closed toughness
    witness, every other graph the cut of ``_pair_flows``, which is empty on
    a disconnected graph.
    """
    x = g.full if x is None else x
    closed = _closed(g, x)
    if closed is None:
        return _pair_flows(g, x)
    if closed[1] is None:
        return max(x.bit_count() - 1, 0), None
    cut = closed[1].cutset
    return cut.bit_count(), cut


@lru_cache(maxsize=1)
def independence(g: Graph, x: int | None = None):
    """Exact independence number and one maximum independent set (as a
    mask) of G[x] (x defaults to every vertex).

    An independent set of G[x] is a clique of its complement, so it lives
    inside one connected component of the complement.  Those components
    come from ``reach`` over the complement's rows, in order of minimum
    vertex, and branch-and-bound runs on g's own rows within each one (for
    dense graphs they are tiny).  INDEPENDENCE_CAP applies to each
    component, and the last result is kept, keyed by the arguments.
    """
    x = g.full if x is None else x
    co = [g.full & ~(row | 1 << v) for v, row in enumerate(g.adj)]
    best_size, best_set = 0, 0
    remaining = x
    while remaining:
        part = reach(co, remaining & -remaining, remaining)
        remaining ^= part
        if part.bit_count() <= best_size:
            continue
        size, found = _mis_branch_bound(g.adj, part)
        if size > best_size:
            best_size, best_set = size, found
    return best_size, best_set


def _mis_branch_bound(adj, part: int):
    """(size, mask) of a maximum independent set inside the vertex mask
    ``part``, with ``adj`` the graph's neighbour masks; past INDEPENDENCE_CAP
    vertices it raises with stage "independence".  The incumbent starts as
    the greedy set over ascending ids, and each branch takes a maximum-degree
    candidate (smallest id on ties), which fixes the set returned."""
    if part.bit_count() > INDEPENDENCE_CAP:
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
            low = rem & -rem
            rem ^= low
            grow = adj[low.bit_length() - 1] & rem
            while grow:
                low = grow & -grow
                rem ^= low
                grow &= adj[low.bit_length() - 1] & rem
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
        pivot, pivot_deg, left = 0, -1, candidates
        while left:
            low = left & -left
            left ^= low
            d = (adj[low.bit_length() - 1] & candidates).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = low, d
        expand(candidates & ~(adj[pivot.bit_length() - 1] | pivot), current | pivot, size + 1)
        expand(candidates & ~pivot, current, size)

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


def threshold(n: int, t, num: int = 1) -> Fraction:
    """num·n/(t+1), as Fraction(num·n·q, p + q) for t = p/q; at num = 1, the
    most vertices an independent set of a t-tough graph holds (see below)."""
    return Fraction(num * n * t.denominator, t.numerator + t.denominator)


def witness_from_independent_set(g: Graph, indep: int, t) -> ToughnessWitness | None:
    """Toughness witness from an independent set larger than n/(t+1).

    Removing N(A) isolates each vertex of A, so c(G - N(A)) >= |A| >= 2
    and the ratio is at most (n - |A|)/|A| < t; the ratio test alone
    decides.  Returns None when |A| < 2, A is not independent, or the
    ratio misses t (only when A is no larger than n/(t+1)).
    """
    if indep.bit_count() < 2 or not is_independent(g, indep):
        return None
    cutset = g.set_neighborhood(indep)
    c = g.component_count(cutset)
    return ToughnessWitness(cutset, c) if Fraction(cutset.bit_count(), c) < t else None
