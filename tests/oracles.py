"""Test-side oracles for values the engine builds and no longer re-checks,
and the graph builders and brute-force references the test modules share.

Each one is written from the definitions, not from the producer's code, so
a test that runs a stage and then an oracle checks the stage.
"""

import random
from itertools import combinations

from toughham.graph import Graph, bit, bits


def all_graphs(n: int):
    """Every labeled simple graph on n vertices (2^C(n,2) of them)."""
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if code >> i & 1])


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
