"""Hamilton cycle and path machinery.

Entry points:

* ``ham_cycle_forced``: exhaustive oracle for a Hamilton cycle of G[within]
  through prescribed independent edges: its root test, then ``first_leaf``,
  an untested walk at any n, then under its cap one pruned backtracking
  loop, and past it ``closure_cycle``.
* ``closure_cycle``: a Hamilton cycle of G[within] through the forced edges
  from a complete Bondy–Chvátal (|within| + |forced|)-closure, in
  polynomial time at any n; None when the closure stays open.  The gate's
  ``dirac_cycle`` is its call on all of G.
* ``multipartite_ham_path``: Hamiltonian path between two prescribed ends
  of a complete multipartite graph given by its parts, by
  largest-remaining-part interleaving with an exact feasibility lookahead.
* ``insert_vertices``: grows a cycle over pending vertices that have enough
  neighbors on it, each between two consecutive neighbors or by one
  rotation; when neither exists, an independent set of the vertex and the
  successors of its neighbors is a toughness witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graph import Graph, GraphError, bit, bits, mask_of, reach
from .metrics import OracleLimitExceeded, ToughnessWitness, threshold, witness_from_independent_set

DEFAULT_ORACLE_CAP = 32


class CycleCert(NamedTuple):
    """Cyclic vertex order; consecutive entries (wrapping) must be edges."""

    order: tuple[int, ...]


class PathCert(NamedTuple):
    order: tuple[int, ...]

    @property
    def ends(self) -> tuple[int, int]:
        return self.order[0], self.order[-1]


def validate_cycle(g: Graph, cert: CycleCert) -> bool:
    order = cert.order
    if len(order) < 3 or len(set(order)) != len(order):
        return False
    m = 0
    for v in order:
        if not 0 <= v < g.n:
            return False
        m |= 1 << v
    if m != g.full:
        return False
    return all(g.adj[u] >> v & 1 for u, v in zip(order, order[1:] + order[:1]))


def validate_path(g: Graph, cert: PathCert) -> bool:
    order = cert.order
    if not order or len(set(order)) != len(order) or any(not 0 <= v < g.n for v in order):
        return False
    return all(g.adj[u] >> v & 1 for u, v in zip(order, order[1:]))


def _check_forced(g: Graph, forced, within: int) -> dict[int, int]:
    partner: dict[int, int] = {}
    for u, v in forced:
        if not g.has_edge(u, v):
            raise GraphError(f"forced edge ({u},{v}) is not an edge of the graph")
        if u in partner or v in partner:
            raise GraphError("forced edges must be pairwise independent")
        if not within >> u & within >> v & 1:
            raise GraphError("forced edges must lie inside the mask")
        partner[u] = v
        partner[v] = u
    return partner


def _successor(adj, partner, path, free: int, tried: int = 0) -> int:
    """The search's next vertex as a bit, or 0: of the end's untried
    neighbours in free (only its partner while due), the one with the fewest
    free neighbours, then the lowest id.  A full path closing gets the bit
    of its start."""
    last = path[-1]
    p = partner.get(last)
    left = adj[last] & (free or 1 << path[0]) & ~tried
    if p is not None and p != path[-2]:
        left &= 1 << p
    pick, fewest = 0, len(adj)
    while left:
        low = left & -left
        left ^= low
        d = (adj[low.bit_length() - 1] & free).bit_count()
        if d < fewest:
            pick, fewest = low, d
    return pick


def first_leaf(g: Graph, forced=(), within: int | None = None) -> CycleCert | None:
    """The oracle's first leaf on G[within] (default: every vertex), forced
    edges inside it, reached by ``_successor`` alone from its lowest vertex
    (that vertex's forced partner first, WLOG by reversal): a polynomial
    walk at any n, and ``ham_cycle_forced``'s answer when it closes.  Else
    None.  Relabelling G[within] ascending keeps every choice, so the walk
    is the one on the induced subgraph, in G's own ids."""
    free = g.full if within is None else within
    partner = _check_forced(g, forced, free)
    if free.bit_count() < 3:
        return None
    start = (free & -free).bit_length() - 1
    path = [start] if start not in partner else [start, partner[start]]
    free &= ~mask_of(path)
    while pick := _successor(g.adj, partner, path, free):
        if not free:
            return CycleCert(tuple(path))
        path.append(pick.bit_length() - 1)
        free ^= pick
    return None


def ham_cycle_forced(g: Graph, forced=(), cap: int = DEFAULT_ORACLE_CAP,
                     within: int | None = None) -> CycleCert | None:
    """Hamilton cycle of G[within] (default: every vertex) through every
    forced edge, or None after exhaustive search.

    Four steps: the root test; ``first_leaf``, returned when it closes, as
    it passes every test on its way; the cap, as only the rest is
    exponential; one loop from the root that grows the path by
    ``_successor``, with a per-depth mask of successors tried, and tests
    every child with vertices left.  The (remaining degree, id) order keeps
    hub vertices in reserve as separators.  The tests, each necessary for a
    Hamilton cycle, so the first cycle in this order is returned: every
    remaining vertex keeps two usable neighbors, at most one depends only
    on the endpoints, no independent-twin class outgrows the interior
    positions left for it, and the remaining vertices plus both endpoints
    stay connected.  Above the cap, which counts within's vertices: the
    root's None, a closing first leaf, the cycle of a complete
    ``closure_cycle``, or OracleLimitExceeded.  Like ``first_leaf``, it
    roots at within's lowest vertex and reads rows inside.
    """
    within = g.full if within is None else within
    partner = _check_forced(g, forced, within)
    if within.bit_count() < 3:
        return None
    adj = g.adj
    start = (within & -within).bit_length() - 1

    # identical adjacency rows are automatically pairwise non-adjacent;
    # such a class needs a separator between any two of its members
    row_groups: dict[int, int] = {}
    for v in bits(within):
        row = adj[v] & within
        row_groups[row] = row_groups.get(row, 0) | 1 << v
    twin_classes = [m for m in row_groups.values() if m.bit_count() >= 2]

    def feasible(last: int, rest: int) -> bool:
        one = two = 0  # vertices with at least one / two neighbours so far
        left = rest
        while left:
            row = adj[(left & -left).bit_length() - 1]
            two |= one & row
            one |= row
            left &= left - 1
        lonely = rest & ~one
        two |= one & (adj[last] | adj[start]) | adj[last] & adj[start]  # then the two ends
        if rest & ~two:
            return False
        # a vertex adjacent only to both endpoints must be the last one placed
        if lonely and rest & (rest - 1):
            return False
        limit = (rest.bit_count() + 1) // 2
        for cls in twin_classes:
            if (cls & rest).bit_count() > limit:
                return False
        blob = rest | 1 << last | 1 << start
        return reach(adj, 1 << start, blob) == blob

    root = [start] if start not in partner else [start, partner[start]]
    root_free = within & ~mask_of(root)
    if not feasible(root[-1], root_free):
        return None
    if (leaf := first_leaf(g, forced, within)) is not None:
        return leaf
    if within.bit_count() > cap:
        if (cyc := closure_cycle(g, forced, within)) is not None:
            return cyc
        raise OracleLimitExceeded("ham-cycle-forced")
    path, free, tried = root[:], root_free, [0]
    while True:
        pick = _successor(adj, partner, path, free, tried[-1])
        if pick and not free:
            return CycleCert(tuple(path))
        if pick:
            tried[-1] |= pick
            v = pick.bit_length() - 1
            if free == pick or feasible(v, free ^ pick):
                path.append(v)
                free ^= pick
                tried.append(0)
        elif len(path) == len(root):
            return None
        else:
            free |= 1 << path.pop()
            tried.pop()


def closure_cycle(g: Graph, forced=(), within: int | None = None) -> CycleCert | None:
    """Hamilton cycle of G[within] (default: every vertex) through the k
    forced edges, built from its (m + k)-closure, m = |within|; None when
    that closure is not complete.  A polynomial constructor at any n.

    The closure adds uv while d(u) + d(v) >= m + k, degrees counted inside
    within, re-testing only the vertices whose degree just rose.  When it
    is complete, the vertices laid out in id order, each forced partner
    right after its mate, are a cycle of it through every forced edge.  The
    added edges are then undone in reverse order (Bondy & Chvátal, "A
    method in graph theory", Discrete Math. 1976; the forced-edge form goes
    back to Pósa 1963 and Kronk 1969).  An undone edge uv on the cycle
    leaves a path v = x_1 ... x_m = u, where d(u) + d(v) >= m + k held as it
    was added.  The i in 1..m-1 with v ~ x_{i+1} number d(v), those with
    u ~ x_i number d(u), so at least k + 1 have both.  At most k path edges
    are forced, so one such i has x_i x_{i+1} unforced, and x_1 ... x_i
    x_m ... x_{i+1} is a cycle through every forced edge without uv; the
    first such i along the path is taken.  The cycle is read from within's
    lowest vertex towards the lower of its two cycle neighbours.

    The Ore case (Ore 1960): when twice the minimum degree is at least
    m + k, every non-adjacent pair meets the degree sum, so the closure is
    complete without being built.  Only the layout's consecutive pairs that
    are not edges of G are then rerouted, against G's own rows, in layout
    order: those rows lose no edge, so each such pair keeps its degree sum
    and the count above still gives k + 1 crossings.
    """
    within = g.full if within is None else within
    partner = _check_forced(g, forced, within) if forced else {}
    m = within.bit_count()
    if m < 3:
        return None
    need = m + len(partner) // 2
    adj = g.adj
    if within == g.full:
        ids, delta = range(g.n), g.min_degree()
    else:
        ids = list(bits(within))
        delta = min((adj[v] & within).bit_count() for v in ids)
    # id order, each forced partner right after its lower mate
    order = sorted(ids, key=lambda v: (min(v, partner.get(v, v)), v)) if partner else list(ids)
    if 2 * delta >= need:
        row = adj
        undo = [(u, v) for u, v in zip(order, order[1:] + order[:1]) if not adj[u] >> v & 1]
    else:
        row = [a & within for a in adj]
        deg = [r.bit_count() for r in row]
        added = []
        todo, queued = list(ids), within
        while todo:
            u = todo.pop()
            queued ^= 1 << u
            rest = within & ~row[u] & ~(1 << u)
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                if deg[u] + deg[v] >= need:
                    row[u] |= low
                    row[v] |= 1 << u
                    deg[u] += 1
                    deg[v] += 1
                    added.append((u, v))
                    for w in (u, v):
                        if not queued >> w & 1:
                            todo.append(w)
                            queued |= 1 << w
        if any(deg[v] != m - 1 for v in ids):
            return None
        undo = reversed(added)
    cyc = order
    for u, v in undo:
        if row is not adj:  # the built closure loses each edge as it is undone
            row[u] ^= 1 << v
            row[v] ^= 1 << u
        a = cyc.index(u)
        cyc = cyc[a + 1:] + cyc[:a + 1]  # a path ending at u
        if cyc[-2] == v:
            cyc = cyc[-2::-1] + [u]
        elif cyc[0] != v:
            continue
        ru, rv = row[u], row[v]
        for i in range(m - 1):
            x, y = cyc[i], cyc[i + 1]
            if ru >> x & 1 and rv >> y & 1 and partner.get(x) != y:
                break
        else:
            raise AssertionError("crossing pair missing despite the degree sum")
        cyc[:i + 1] = cyc[i::-1]
    a = cyc.index(order[0])
    if cyc[a - 1] < cyc[a + 1 - m]:
        return CycleCert(tuple(cyc[a::-1] + cyc[:a:-1]))
    return CycleCert(tuple(cyc[a:] + cyc[:a]))


def dirac_cycle(g: Graph) -> CycleCert:
    """The gate's constructor from minimum degree n/2: ``closure_cycle(g)``, raising on None."""
    if (cyc := closure_cycle(g)) is None:
        raise GraphError("the n-closure is open or n < 3")
    return cyc


# --- Hamiltonian paths in complete multipartite graphs ----------------------

def _interleave_feasible(counts, forbid: int | None, last: int) -> bool:
    """Exact feasibility of arranging the color counts with no equal colors
    adjacent, first color != forbid, final color == last."""
    total = sum(counts)
    if total == 0 or counts[last] < 1:
        return False
    for c, m in enumerate(counts):
        if m == 0:
            continue
        bound = (total - 1 + (1 if c != forbid else 0) + (1 if c == last else 0)) // 2
        if m > bound:
            return False
    return True


def multipartite_ham_path(parts, x: int, y: int) -> PathCert | None:
    """Hamiltonian (x,y)-path of the complete multipartite graph with these
    parts (vertex masks, ordered by minimum vertex), or None.

    Consecutive path vertices must come from different parts, so this is a
    color-interleaving problem; the builder always places a largest
    remaining part next, subject to an exact feasibility lookahead, which
    makes infeasibility detection exact as well.
    """
    if x == y:
        raise GraphError("path endpoints must differ")
    part_of = {v: i for i, part in enumerate(parts) for v in bits(part)}
    if x not in part_of or y not in part_of:
        raise GraphError("path endpoints must lie in the parts")
    a, b = part_of[x], part_of[y]
    counts = [p.bit_count() for p in parts]
    if max(counts) == 1:  # one vertex a part: the interleaving's order
        return PathCert((x, *sorted(part_of.keys() - {x, y}), y))

    seq = [a]
    counts[a] -= 1
    if not _interleave_feasible(counts, a, b):
        return None
    while sum(counts) > 1:
        prev = seq[-1]
        chosen = -1
        for c in sorted(range(len(counts)), key=lambda c: (-counts[c], c)):
            if c == prev or counts[c] == 0:
                continue
            counts[c] -= 1
            if _interleave_feasible(counts, c, b):
                chosen = c
                break
            counts[c] += 1
        if chosen < 0:
            raise AssertionError("interleaving lookahead lied about feasibility")
        seq.append(chosen)
    if seq[-1] == b or counts[b] != 1:
        raise AssertionError("interleaving ended off the target part")
    seq.append(b)

    pools = [[v for v in bits(part) if v != x and v != y] for part in parts]
    order = [x]
    for c in seq[1:-1]:
        order.append(pools[c].pop(0))
    order.append(y)
    return PathCert(tuple(order))


def insert_vertices(g: Graph, cyc: CycleCert, pending: int,
                    t: Fraction) -> tuple[CycleCert | ToughnessWitness, int]:
    """Extend the cycle over every pending vertex, one at a time.

    Each pending vertex v must have more than n/(t+1) - 1 neighbors on the
    current cycle C (checked; the cycle grows as vertices are inserted).
    By the rotation lemma of Chvátal and Erdős, with x+ the successor of x
    on C: v goes between two consecutive neighbors a, a+; else, when two
    neighbors a, b have adjacent successors (the first such pair in cycle
    order), v a (back along C) b+ a+ (on along C) b v is a cycle; else v
    and the successors of its neighbors are independent (no consecutive
    pair, no rotation) and more than n/(t+1), so
    ``witness_from_independent_set`` makes them a witness that G is not
    t-tough.  With no neighbor on C, n/(t+1) < 1 and any vertex of C
    stands in for the successors.  Returns the grown cycle, or the first
    stuck vertex's witness, and the number of rotations.
    """
    on_cycle = 0
    for v in cyc.order:
        on_cycle |= bit(v)
    if pending & on_cycle:
        raise GraphError("pending vertices overlap the cycle")
    low = threshold(g.n, t) - 1
    order = list(cyc.order)
    rotations = 0
    for v in bits(pending):
        if (g.adj[v] & on_cycle).bit_count() <= low:
            raise GraphError(
                f"vertex {v} has too few neighbors on the cycle for insertion")
        slot = -1
        for i in range(len(order)):
            a, bnext = order[i], order[(i + 1) % len(order)]
            if g.adj[v] >> a & 1 and g.adj[v] >> bnext & 1:
                slot = i
                break
        if slot >= 0:
            order.insert(slot + 1, v)
        else:
            k = len(order)
            hits = [i for i in range(k) if g.adj[v] >> order[i] & 1]
            pair = next(((i, j) for i in hits for j in hits
                         if i < j and g.adj[order[i + 1]] >> order[(j + 1) % k] & 1), None)
            if pair is None:
                succ = mask_of(order[(i + 1) % k] for i in hits) or bit(order[0])
                return witness_from_independent_set(g, bit(v) | succ, t), rotations
            i, j = pair
            # a = order[i], b = order[j]: a+ on to b, v, then a back round to b+
            order = order[i + 1:j + 1] + [v] + order[i::-1] + order[:j:-1]
            rotations += 1
        on_cycle |= bit(v)
    return CycleCert(tuple(order)), rotations
