"""Hamilton cycle and path machinery.

Four entry points:

* ``ham_cycle_forced``: exhaustive backtracking oracle for a Hamilton cycle
  through a prescribed set of independent edges, with bitset pruning.
* ``dirac_cycle``: constructive rotation-extension builder for graphs with
  minimum degree at least n/2; polynomial, never falls back to search.
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

from .graph import Graph, GraphError, bit, bits, mask_of
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
        m |= bit(v)
    if m != g.full:
        return False
    return all(g.has_edge(order[i], order[(i + 1) % len(order)]) for i in range(len(order)))


def validate_path(g: Graph, cert: PathCert) -> bool:
    order = cert.order
    if len(order) == 0 or len(set(order)) != len(order):
        return False
    if any(not 0 <= v < g.n for v in order):
        return False
    return all(g.has_edge(order[i], order[i + 1]) for i in range(len(order) - 1))


def _check_forced(g: Graph, forced) -> dict[int, int]:
    partner: dict[int, int] = {}
    for u, v in forced:
        if not g.has_edge(u, v):
            raise GraphError(f"forced edge ({u},{v}) is not an edge of the graph")
        if u in partner or v in partner:
            raise GraphError("forced edges must be pairwise independent")
        partner[u] = v
        partner[v] = u
    return partner


def ham_cycle_forced(g: Graph, forced=(), cap: int = DEFAULT_ORACLE_CAP) -> CycleCert | None:
    """Hamilton cycle through every forced edge, or None after exhaustive search.

    Backtracking always extends from the most recently placed endpoint; a
    vertex whose forced partner is not yet consumed admits only that
    partner as successor.  Successors are tried fewest-options-first
    (remaining degree, then id), which keeps high-degree hub vertices in
    reserve as separators.  Prunes: remaining vertices plus both endpoints
    must stay connected, every remaining vertex must keep two usable
    neighbors, at most one remaining vertex may depend exclusively on the
    endpoints, and no independent-twin class may outgrow the interior
    positions left for it.
    """
    n = g.n
    if n > cap:
        raise OracleLimitExceeded("ham-cycle-forced")
    partner = _check_forced(g, forced)
    if n < 3:
        return None
    adj = g.adj
    full = g.full
    path = [0]
    visited = 1

    # identical adjacency rows are automatically pairwise non-adjacent;
    # such a class needs a separator between any two of its members
    row_groups: dict[int, int] = {}
    for v in range(n):
        row_groups[adj[v]] = row_groups.get(adj[v], 0) | bit(v)
    twin_classes = [m for m in row_groups.values() if m.bit_count() >= 2]

    def feasible(last: int, rest: int) -> bool:
        blob = rest | bit(last) | 1
        if g.component_count(full & ~blob) != 1:
            return False
        lonely = 0
        for v in bits(rest):
            inside = adj[v] & blob
            if inside.bit_count() < 2:
                return False
            if inside & rest == 0:
                lonely += 1
        # a vertex adjacent only to both endpoints must be the last one placed
        if lonely > (1 if rest.bit_count() == 1 else 0):
            return False
        interior = rest.bit_count()
        limit = (interior + 1) // 2
        for cls in twin_classes:
            if (cls & rest).bit_count() > limit:
                return False
        return True

    def step() -> bool:
        nonlocal visited
        last = path[-1]
        if len(path) == n:
            p = partner.get(last)
            return bool(adj[last] & 1) and (p is None or p == path[-2])
        p = partner.get(last)
        if p is not None and (len(path) < 2 or p != path[-2]):
            candidates = adj[last] & ~visited & bit(p)
        else:
            candidates = adj[last] & ~visited
        order = sorted(bits(candidates),
                       key=lambda v: ((adj[v] & ~visited).bit_count(), v))
        for v in order:
            path.append(v)
            visited |= bit(v)
            rest = full & ~visited
            if (rest == 0 or feasible(v, rest)) and step():
                return True
            path.pop()
            visited &= ~bit(v)
        return False

    p0 = partner.get(0)
    if p0 is not None:
        # WLOG the forced edge at vertex 0 is traversed first (cycle reversal)
        path.append(p0)
        visited |= bit(p0)
        if not step():
            return None
    elif not step():
        return None
    return CycleCert(tuple(path))


def dirac_cycle(g: Graph) -> CycleCert:
    """Hamilton cycle by rotation-extension; requires min degree >= n/2.

    Grow a maximal path, close it into a cycle through a crossing pair
    (which the degree condition always supplies), then absorb an outside
    vertex and repeat.  Purely polynomial; raises on precondition failure.
    """
    n = g.n
    if n < 3:
        raise GraphError("Hamilton cycles need at least three vertices")
    if 2 * g.min_degree() < n:
        raise GraphError("minimum degree below n/2")
    adj = g.adj
    path = [0]
    inpath = 1
    while True:
        # extend greedily at the tail, then the head, until maximal
        extended = True
        while extended:
            extended = False
            free = adj[path[-1]] & ~inpath
            if free:
                v = (free & -free).bit_length() - 1
                path.append(v)
                inpath |= bit(v)
                extended = True
                continue
            free = adj[path[0]] & ~inpath
            if free:
                v = (free & -free).bit_length() - 1
                path.insert(0, v)
                inpath |= bit(v)
                extended = True
        k = len(path)
        head, tail = path[0], path[-1]
        if adj[head] >> tail & 1:
            cycle = path
        else:
            pos_head = 0
            pos_tail = 0
            for i in range(k - 1):
                if adj[head] >> path[i + 1] & 1:
                    pos_head |= 1 << i
                if adj[tail] >> path[i] & 1:
                    pos_tail |= 1 << i
            common = pos_head & pos_tail
            if not common:
                raise AssertionError("crossing pair missing despite degree condition")
            i = (common & -common).bit_length() - 1
            cycle = path[: i + 1] + path[: i:-1]
        if k == n:
            return CycleCert(tuple(cycle))
        outside = g.full & ~inpath
        attach = -1
        for w in bits(outside):
            if adj[w] & inpath:
                attach = w
                break
        if attach < 0:
            raise AssertionError("graph disconnected despite degree condition")
        j = 0
        for idx, v in enumerate(cycle):
            if adj[attach] >> v & 1:
                j = idx
                break
        path = [attach] + cycle[j:] + cycle[:j]
        inpath |= bit(attach)


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
