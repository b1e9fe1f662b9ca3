"""Test-side oracles for values the engine builds and no longer re-checks,
and the graph builders and brute-force references the test modules share.

Each one is written from the definitions, not from the producer's code, so
a test that runs a stage and then an oracle checks the stage.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from toughham.graph import Graph, bit, bits
from toughham.recognition import _holds


def all_graphs(n: int):
    """Every labeled simple graph on n vertices (2^C(n,2) of them)."""
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if code >> i & 1])


def induced(g, mask):
    """G[mask] built as its own graph from g's edge list, and its
    relabelling map (new id -> id in g): the reference the solvers that
    work inside a vertex mask are checked against."""
    vmap = tuple(bits(mask))
    index = {v: i for i, v in enumerate(vmap)}
    return Graph.from_edges(len(vmap), [(index[u], index[v]) for u, v in g.edges()
                                        if u in index and v in index]), vmap


def random_edge_graph(rng, n: int, p: float = 0.5) -> Graph:
    """Each pair u < v, in row-major order, an edge with probability p, drawn
    from the caller's rng (``generators.random_graph`` seeds its own)."""
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


def blob_with_attachments(parts, attachments):
    """Complete multipartite blob plus low-degree vertices glued to it."""
    base = Graph.complete_multipartite(parts)
    n = base.n + len(attachments)
    edges = list(base.edges())
    for i, targets in enumerate(attachments):
        edges += [(base.n + i, t) for t in targets]
    return Graph.from_edges(n, edges)


def case2_instance(pairs, low, joins, rng):
    """complete_multipartite([2] * pairs) plus low independent vertices,
    each joined to ``joins`` whole parts drawn from the caller's rng, then
    relabelled."""
    base = Graph.complete_multipartite([2] * pairs)
    chosen = rng.sample(range(pairs), low * joins)
    edges = list(base.edges())
    for i in range(low):
        x = 2 * pairs + i
        for part in chosen[i * joins:(i + 1) * joins]:
            edges += [(2 * part, x), (2 * part + 1, x)]
    perm = list(range(2 * pairs + low))
    rng.shuffle(perm)
    return Graph.from_edges(len(perm), [(perm[u], perm[v]) for u, v in edges])


def random_matching(rng, pairs, size: int) -> list[tuple[int, int]]:
    """Up to ``size`` pairwise disjoint pairs, taken greedily from the
    vertex pairs in an order shuffled by the caller's rng."""
    pairs = list(pairs)
    rng.shuffle(pairs)
    matching, used = [], 0
    for u, v in pairs:
        if len(matching) == size:
            break
        if not (used >> u | used >> v) & 1:
            matching.append((u, v))
            used |= 1 << u | 1 << v
    return matching


def false_twin_blow_up(g, sizes, rng):
    """g with vertex v replaced by sizes[v] false twins, pairwise
    non-adjacent and joined to every twin of each neighbour of v, then
    relabelled by a permutation drawn from the caller's rng."""
    owner = [v for v in range(g.n) for _ in range(sizes[v])]
    perm = list(range(len(owner)))
    rng.shuffle(perm)
    return Graph.from_edges(len(owner), [(perm[a], perm[b])
                                         for a, b in combinations(range(len(owner)), 2)
                                         if g.adj[owner[a]] >> owner[b] & 1])


def reference_holds(g) -> bool:
    """Does g induce 2p2+p1, by the mask scan over every vertex of g: no
    complete-multipartite guard and no quotient by equal rows.  The scan
    itself is held to brute force in ``test_recognition``."""
    return g.n >= 5 and _holds(g.adj, g.full, 2, 1)


def reference_ham_cycle_forced(g, forced=(), first_leaf=False):
    """The forced-edge oracle's search with no pruning: a path grows from 0,
    taking 0's forced partner first; a vertex whose forced partner is not
    its predecessor goes on to that partner only; successors are tried by
    (unvisited neighbours, id); a full path closes when its last vertex
    sees 0 and its forced partner, if any, is its predecessor.  The first
    closed path, as a tuple, or None; with ``first_leaf``, only the first
    successor is tried, so the search's first leaf if it closes, or None."""
    partner = {}
    for u, v in forced:
        partner[u], partner[v] = v, u
    n = g.n
    if n < 3:
        return None
    path = [0] if 0 not in partner else [0, partner[0]]

    def grow():
        last = path[-1]
        p = partner.get(last)
        if len(path) == n:
            return g.adj[last] & 1 and p in (None, path[-2])
        nexts = [v for v in range(n) if g.adj[last] >> v & 1 and v not in path]
        if p is not None and (len(path) < 2 or p != path[-2]):
            nexts = [v for v in nexts if v == p]
        nexts.sort(key=lambda v: (sum(g.adj[v] >> w & 1 for w in range(n) if w not in path), v))
        for v in nexts[:1] if first_leaf else nexts:
            path.append(v)
            if grow():
                return True
            path.pop()
        return False

    return tuple(path) if grow() else None


def reference_root_test(g, forced=()) -> bool:
    """The forced-edge oracle's necessary conditions at its root, on plain
    sets: with the root path 0 (then 0's forced partner, if any) and R the
    other vertices, each vertex of R has two neighbours counted in R plus
    once per end (so a neighbour of a one-vertex root counts it twice), no
    vertex of R lacks a neighbour in R unless R is that one vertex, no class
    of vertices with equal neighbourhoods holds more than (|R| + 1) // 2 of
    R, and R plus the ends induces a connected graph."""
    partner = {}
    for u, v in forced:
        partner[u], partner[v] = v, u
    n = g.n
    if n < 3:
        return False
    nbrs = [{w for w in range(n) if g.has_edge(v, w)} for v in range(n)]
    ends = [0, partner.get(0, 0)]
    rest = set(range(n)) - set(ends)
    if any(len(nbrs[v] & rest) + sum(e in nbrs[v] for e in ends) < 2 for v in rest):
        return False
    if len(rest) > 1 and any(not nbrs[v] & rest for v in rest):
        return False
    if any(sum(nbrs[w] == nbrs[v] for w in rest) > (len(rest) + 1) // 2 for v in range(n)):
        return False
    seen, stack = {0}, [0]
    while stack:
        for w in nbrs[stack.pop()] & (rest | set(ends)):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == rest | set(ends)


def naive_components(n, edge_set, removed) -> int:
    """The number of components of the graph on 0..n-1 with edges
    ``edge_set`` (frozenset pairs) once the set ``removed`` is deleted."""
    left = set(range(n)) - removed
    comps = 0
    while left:
        comps += 1
        stack = [min(left)]
        left.discard(stack[0])
        while stack:
            x = stack.pop()
            for y in list(left):
                if frozenset((x, y)) in edge_set:
                    left.discard(y)
                    stack.append(y)
    return comps


def brute_b_matching(g, x_side, y_side, f) -> bool:
    """Assign f[x] distinct Y-neighbors to every x, by exhaustive search."""
    xs = list(bits(x_side))

    def rec(i, used):
        if i == len(xs):
            return True
        x = xs[i]
        options = [y for y in bits(g.adj[x] & y_side) if y not in used]

        def pick(chosen, start):
            if len(chosen) == f[x]:
                return rec(i + 1, used | set(chosen))
            for j in range(start, len(options)):
                if pick(chosen + [options[j]], j + 1):
                    return True
            return False

        return pick([], 0)

    return rec(0, set())


def part_sizes(n: int, top: int | None = None):
    """Every multiset of positive part sizes summing to n, none above
    ``top``, as a non-increasing tuple."""
    if n == 0:
        yield ()
    for first in range(min(n, n if top is None else top), 0, -1):
        for rest in part_sizes(n - first, first):
            yield (first, *rest)


def complete_multipartite_graphs(top: int, seed: int):
    """One complete multipartite graph for each multiset of part sizes on
    n = 1..top vertices (all ones: K_n; one part: n isolated vertices),
    its vertices shuffled by a seeded permutation.  Every vertex is joined
    to every vertex outside its own part."""
    rng = random.Random(seed)
    for n in range(1, top + 1):
        for sizes in part_sizes(n):
            part = [i for i, size in enumerate(sizes) for _ in range(size)]
            perm = list(range(n))
            rng.shuffle(perm)
            yield Graph.from_edges(n, [(perm[u], perm[v]) for u, v in combinations(range(n), 2)
                                       if part[u] != part[v]])


def cutsets_by_brute_force(g, k: int) -> list[tuple[int, int]]:
    """Every cutset S of size k with c(G - S), as (S, c) pairs with c >= 2,
    from a count of components for each of the C(n, k) subsets, in
    lexicographic order."""
    pairs = []
    for s in map(sum, combinations([bit(v) for v in range(g.n)], k)):
        c = g.component_count(s)
        if c >= 2:
            pairs.append((s, c))
    return pairs


@lru_cache(maxsize=1)
def _split_digraph(g):
    """(capacities, arcs) of g's vertex-split digraph: node 2v is v_in and
    2v+1 is v_out, v_in -> v_out has capacity one and v_out -> w_in, for
    every edge vw, capacity n, which no flow fills; capacities form a node
    by node matrix, and each node lists its arcs both ways."""
    m = 2 * g.n
    cap = [[0] * m for _ in range(m)]
    arcs = [[] for _ in range(m)]

    def arc(x, y, c):
        cap[x][y] = c
        arcs[x].append(y)
        arcs[y].append(x)

    for v in range(g.n):
        arc(2 * v, 2 * v + 1, 1)
    for u, v in g.edges():
        arc(2 * u + 1, 2 * v, g.n)
        arc(2 * v + 1, 2 * u, g.n)
    return cap, arcs


def reference_pair_cut(g, s: int, t: int, limit: int) -> int | None:
    """The minimum vertex cut between non-adjacent s and t nearest to s, or
    None once ``limit`` disjoint s-t paths are found, by unit augmentations
    from the zero flow on the explicit ``_split_digraph``: augmenting paths
    come from a plain BFS over the residual capacities, and the cut is
    every vertex whose in-node the final BFS reaches and whose out-node it
    does not."""
    template, arcs = _split_digraph(g)
    m = len(arcs)
    cap = [row[:] for row in template]
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        if flow >= limit:
            return None
        parent = [-1] * m
        parent[source] = source
        queue = [source]
        for x in queue:
            for y in arcs[x]:
                if parent[y] < 0 and cap[x][y] > 0:
                    parent[y] = x
                    queue.append(y)
            if parent[sink] >= 0:
                break
        if parent[sink] < 0:
            break
        flow += 1
        y = sink
        while y != source:
            x = parent[y]
            cap[x][y] -= 1
            cap[y][x] += 1
            y = x
    return sum(bit(v) for v in range(g.n) if parent[2 * v] >= 0 and parent[2 * v + 1] < 0)


def split_violations(g, uv, dec) -> list[str]:
    """The relations of a case-1 ``Decomposition`` built around the edge uv,
    with S rebuilt from it.

    S = N(u) ∪ N(v) minus u, v and D1 = {u, v}; G1 holds D1 and G2 holds
    D2; G1 and G2 are disjoint and split S between them; D2 is a component
    of G - S; S, D1 and D2 cover the graph.
    """
    u, v = uv
    d1 = bit(u) | bit(v)
    s = (g.adj[u] | g.adj[v]) & ~d1
    g1, g2, d2 = dec.g1_mask, dec.g2_mask, dec.d2_mask
    bad = []
    if g1 & g2:
        bad.append("G1 and G2 overlap")
    if d1 & ~g1 or d2 & ~g2:
        bad.append("G1 misses D1 or G2 misses D2")
    if (g1 & ~d1) | (g2 & ~d2) != s:
        bad.append("G1 - D1 and G2 - D2 do not make up S")
    if d2 not in g.components(s):
        bad.append("D2 is not a component of G - S")
    if s | d1 | d2 != g.full:
        bad.append("S, D1 and D2 do not cover the graph")
    return bad


def star_centers(m) -> int:
    """The mask of the centers of a star-matching."""
    mask = 0
    for center, _ in m.stars:
        mask |= bit(center)
    return mask


def validate_star_matching(g, m, centers=None, degree=None) -> bool:
    """Disjoint stars of g; optionally exactly these centers, each with
    exactly ``degree`` leaves."""
    seen = 0
    for center, leaves in m.stars:
        if degree is not None and len(leaves) != degree:
            return False
        star = bit(center)
        for leaf in leaves:
            if not g.has_edge(center, leaf):
                return False
            star |= bit(leaf)
        if star.bit_count() != 1 + len(leaves):
            return False
        if star & seen:
            return False
        seen |= star
    return centers is None or star_centers(m) == centers


def plain_record_line(name, fields=(), ids=None) -> str:
    """The line-record formatter written from the format: rationals as
    num/den, booleans as true/false, everything else as its str, which may
    hold no whitespace; then ``--`` and the ids."""
    parts = [name]
    for key, value in fields:
        if isinstance(value, Fraction):
            text = f"{value.numerator}/{value.denominator}"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = str(value)
        if any(c.isspace() for c in text):
            raise ValueError(f"record field {key} contains whitespace: {text!r}")
        parts.append(f"{key}={text}")
    if ids is not None:
        parts.append("--")
        parts.extend(str(v) for v in ids)
    return " ".join(parts)
