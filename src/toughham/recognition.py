"""Induced-pattern detection and complete-multipartite structure.

The engine forbids one pattern, ``2p2+p1`` (two disjoint edges plus an
isolated vertex), and ``holds``, ``find_induced`` and ``induces_pattern``
answer only it.  A graph with no induced ``p2+p1`` (an edge plus an
isolated vertex) is exactly a complete multipartite graph (its complement
is a disjoint union of cliques), which is the structural fact the whole
pipeline leans on: ``multipartite_parts`` decides it and
``multipartite_decompose`` also gives the witness.  Every search returns
the lexicographically smallest ascending vertex tuple inducing its pattern.

G[X] holds an induced ``p2+p1`` exactly when it is not complete
multipartite, which one pass over the non-adjacency classes of X decides in
O(|X|) mask operations.  G holds an induced ``2p2+p1`` exactly when some
edge ab leaves such a G[X] in X = V - (N(a) u N(b)), so deciding freeness
costs O(n*m) mask operations.  Every such X lies inside G - N[a], and a
superset of a set holding ``p2+p1`` holds it too, so the scan skips a
after one test when G - N[a] is complete multipartite (one test per
vertex when every G - N[a] is), and ``holds`` first tests G itself: a
complete multipartite graph costs that one O(n) test.  The scan runs on
one vertex of each distinct row (see ``holds``), so the blow-ups of the
case split pay once per row.  The ``p2+p1`` witness is built greedily by
``_forest_witness``: each position takes the smallest vertex above the
previous one for which an exact completion test (a role for every chosen
vertex, then the missing edges, partners and isolated vertex inside masks)
still finds a witness, at most n completion tests per position.  The same
greedy finds ``2p2+p1`` witnesses and is tested on them, but
``find_induced`` still takes those from a backtracker over ascending
5-tuples once the bitset test has found that one exists (routing them
through the greedy is one line, ROADMAP item 8).  Rejection sampling only
asks whether the pattern is there, through ``holds``, so it runs no witness
search.  Checking a claimed witness needs no search at all: the ids must be
five and distinct, and each must see at most one of the others, with four
such incidences in all.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, bits, mask_of


# The pattern the scan searches for and the checker demands.
FORBIDDEN_PATTERN = "2p2+p1"

# The graph the 2p2+p1 backtracker prunes against.
_2P2P1 = Graph.from_edges(5, [(0, 1), (2, 3)])


class InducedWitness(NamedTuple):
    """Vertices of the host graph inducing the named pattern."""

    vertices: tuple[int, ...]
    pattern: str


class Multipartition(NamedTuple):
    """Partition into independent parts, pairwise completely joined."""

    parts: tuple[int, ...]  # vertex masks, ordered by minimum vertex

    def largest_part(self) -> int:
        """Mask of a largest part (ties broken by smallest minimum vertex,
        as ``max`` keeps the first of the parts ordered by minimum vertex)."""
        return max(self.parts, key=int.bit_count)


def _partial_embeddable(rows: list[int], k: int) -> bool:
    """Can the k-vertex graph given by rows map injectively into 2p2+p1
    preserving adjacency and non-adjacency?  Tiny backtracking; k <= 5."""
    pg = _2P2P1
    used = [False] * 5
    assign = [0] * k

    def rec(i: int) -> bool:
        if i == k:
            return True
        want = rows[i]
        for cand in range(5):
            if used[cand]:
                continue
            ok = True
            for j in range(i):
                have = bool(pg.adj[cand] >> assign[j] & 1)
                if have != bool(want >> j & 1):
                    ok = False
                    break
            if ok:
                used[cand] = True
                assign[i] = cand
                if rec(i + 1):
                    used[cand] = False
                    return True
                used[cand] = False
        return False

    return rec(0)


def _backtrack(g: Graph) -> tuple[int, ...] | None:
    """Smallest ascending tuple inducing 2p2+p1, by exhaustive backtracking;
    a partial tuple is pruned as soon as its induced subgraph no longer
    embeds into the pattern, so a full tuple that survives induces it.
    O(n^5)."""
    n = g.n
    adj = g.adj
    chosen: list[int] = []
    rows: list[int] = []  # induced adjacency among chosen, little-endian in choice order

    def rec(start: int) -> tuple[int, ...] | None:
        depth = len(chosen)
        if depth == 5:
            return tuple(chosen)
        # leave room for the remaining pattern vertices
        for v in range(start, n - (4 - depth)):
            row = 0
            av = adj[v]
            for j, u in enumerate(chosen):
                if av >> u & 1:
                    row |= 1 << j
            chosen.append(v)
            rows.append(row)
            for j in bits(row):
                rows[j] |= 1 << depth
            if _partial_embeddable(rows, depth + 1):
                hit = rec(v + 1)
                if hit is not None:
                    return hit
            chosen.pop()
            rows.pop()
            for j in bits(row):
                rows[j] &= ~(1 << depth)
        return None

    return rec(0)


def _parts(adj, x: int) -> list[int] | None:
    """Parts of G[x], ordered by minimum vertex, if G[x] is complete
    multipartite; None when it holds an induced p2+p1.

    Non-adjacency must be an equivalence on x whose classes are the closed
    non-neighbourhoods: if v and w are non-adjacent and some u is adjacent
    to exactly one of them, {u, v, w} induces p2+p1.
    """
    parts = []
    rest = x
    while rest:
        part = x & ~adj[(rest & -rest).bit_length() - 1]
        for w in bits(part):
            if x & ~adj[w] != part:
                return None
        parts.append(part)
        rest &= ~part
    return parts


def _holds(adj, x: int, edges: int, solo: int) -> bool:
    """Does G[x] induce `edges` disjoint edges plus `solo` (0 or 1) more
    vertices, with no other edge among them?"""
    if edges == 0:
        return not solo or x != 0
    if edges == 1 and solo:
        return _parts(adj, x) is None
    if edges == 1:
        return any(adj[v] & x for v in bits(x))
    rest = x
    for a in bits(x):
        rest ^= 1 << a
        # the other pieces lie outside N[a] and N[b], so inside outside:
        # if G[outside] holds no smaller forest, no edge at a can help
        outside = x & ~adj[a] & ~(1 << a)
        if not outside or not _holds(adj, outside, edges - 1, solo):
            continue
        for b in bits(adj[a] & rest):
            if _holds(adj, outside & ~adj[b], edges - 1, solo):
                return True
    return False


def _place(adj, partners: list[int], x: int, edges: int, solo: int) -> bool:
    """Pick one vertex from each partner mask, then `edges` edges and `solo`
    vertices inside x, all pairwise non-adjacent apart from those edges."""
    if not partners:
        return _holds(adj, x, edges, solo)
    for r in bits(partners[0]):
        keep = ~adj[r]
        if _place(adj, [p & keep for p in partners[1:]], x & keep, edges, solo):
            return True
    return False


def _extends(adj, prefix: list[int], above: int, edges: int, solo: int) -> bool:
    """Is there a witness of the forest (`edges` edges, `solo` isolated
    vertices) made of the prefix plus vertices of `above`, which holds no
    prefix vertex?

    Each prefix vertex with a neighbour in the prefix ends a whole edge; each
    other one either is the isolated vertex or waits for a partner in
    `above` that sees no other witness vertex.
    """
    inside = mask_of(prefix)
    seen = 0
    whole = 0
    loose = []
    for p in prefix:
        seen |= adj[p]
        d = (adj[p] & inside).bit_count()
        if d > 1:
            return False
        if d:
            whole += 1
        else:
            loose.append(p)
    whole //= 2
    free = above & ~seen
    # the prefix vertex playing the isolated vertex, if any
    for lone in [None] + (loose if solo else []):
        halves = [u for u in loose if u != lone]
        need = edges - whole - len(halves)
        if need < 0:
            continue
        partners = []
        for u in halves:
            others = 0
            for p in prefix:
                if p != u:
                    others |= adj[p]
            partners.append(above & adj[u] & ~others)
        if _place(adj, partners, free, need, solo - (lone is not None)):
            return True
    return False


def _forest_witness(adj, x: int, edges: int, solo: int) -> tuple[int, ...] | None:
    """Smallest ascending tuple of vertices of x inducing `edges` disjoint
    edges plus `solo` isolated vertices, by a greedy over positions with an
    exact completion test; O(n*m) mask operations when there is none."""
    if not _extends(adj, [], x, edges, solo):
        return None
    prefix: list[int] = []
    above = x
    for _ in range(2 * edges + solo):
        for v in bits(above):
            rest = above & ~((2 << v) - 1)
            if _extends(adj, prefix + [v], rest, edges, solo):
                prefix.append(v)
                above = rest
                break
        else:
            raise AssertionError("a witness exists but no prefix of it extends")
    return tuple(prefix)


def holds(g: Graph) -> bool:
    """Does g induce 2p2+p1?  O(n*m) mask operations, no witness.

    The scan runs on ``keep``, the lowest vertex of each distinct row: no
    two vertices of 2p2+p1 have equal neighbourhoods inside it, so moving
    each vertex of an induced copy to the representative of its row is
    injective and keeps every adjacency, and G[keep] is induced in G.
    """
    # 2p2+p1 holds p2+p1, which a complete multipartite G does not
    if g.n < 5 or _parts(g.adj, g.full) is not None:
        return False
    keep = mask_of({g.adj[v]: v for v in range(g.n - 1, -1, -1)}.values())
    return _holds(g.adj, keep, 2, 1)


def find_induced(g: Graph) -> InducedWitness | None:
    """Lexicographically smallest vertex tuple inducing 2p2+p1, or None."""
    if not holds(g):
        return None
    # the backtracker stops at its first complete tuple
    return InducedWitness(_backtrack(g), FORBIDDEN_PATTERN)


def induces_pattern(g: Graph, vertices) -> bool:
    """Checker-side validation: do these vertices induce 2p2+p1 exactly?
    A shape test: five distinct ids, each adjacent to at most one other,
    two pairs."""
    vs = list(vertices)
    if len(vs) != 5 or len(set(vs)) != 5:
        return False
    ends = 0
    for v in vs:
        seen = sum(g.has_edge(v, u) for u in vs if u != v)
        if seen > 1:
            return False
        ends += seen
    return ends == 4


def multipartite_decompose(g: Graph, x: int | None = None) -> Multipartition | InducedWitness:
    """Complete-multipartite structure of G[x] (x defaults to every vertex),
    or its lexicographically smallest induced p2+p1 witness, in g's ids.

    The parts are the non-adjacency classes, which are also the components
    of the complement.
    """
    x = g.full if x is None else x
    parts = multipartite_parts(g, x)
    if parts is not None:
        return Multipartition(parts)
    return InducedWitness(_forest_witness(g.adj, x, 1, 1), "p2+p1")


def multipartite_parts(g: Graph, x: int | None = None) -> tuple[int, ...] | None:
    """Parts of G[x] (x defaults to every vertex) when it is complete
    multipartite, ordered by minimum vertex; None otherwise.  O(|x|) mask
    operations, no witness."""
    parts = _parts(g.adj, g.full if x is None else x)
    return tuple(parts) if parts is not None else None
