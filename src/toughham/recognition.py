"""Induced-pattern detection and complete-multipartite structure.

A graph with no induced edge-plus-isolated-vertex is exactly a complete
multipartite graph (its complement is a disjoint union of cliques), which is
the structural fact the whole pipeline leans on.  Pattern search is an
exhaustive backtracking over ascending vertex tuples, pruned by partial
induced-embedding feasibility, so the returned witness is always the
lexicographically smallest one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, bits, lex_key


def _disjoint_union(*graphs: Graph) -> Graph:
    n = sum(g.n for g in graphs)
    edges = []
    off = 0
    for g in graphs:
        edges.extend((u + off, v + off) for u, v in g.edges())
        off += g.n
    return Graph.from_edges(n, edges)


# Pattern library: paths P1..P5 and the small linear forests the pipeline
# and its experiments care about.
PATTERNS: dict[str, Graph] = {
    "p1": Graph.empty(1),
    "p2": Graph.path(2),
    "p3": Graph.path(3),
    "p4": Graph.path(4),
    "p5": Graph.path(5),
    "p2+p1": _disjoint_union(Graph.path(2), Graph.empty(1)),
    "2p2": _disjoint_union(Graph.path(2), Graph.path(2)),
    "2p2+p1": _disjoint_union(Graph.path(2), Graph.path(2), Graph.empty(1)),
    "p4+p1": _disjoint_union(Graph.path(4), Graph.empty(1)),
}

MAX_PATTERN_VERTICES = 5


@dataclass(frozen=True)
class InducedWitness:
    """Vertices of the host graph inducing the named pattern."""

    vertices: tuple[int, ...]
    pattern: str


@dataclass(frozen=True)
class Multipartition:
    """Partition into independent parts, pairwise completely joined."""

    parts: tuple[int, ...]  # vertex masks, ordered by minimum vertex

    def part_sizes(self) -> tuple[int, ...]:
        return tuple(p.bit_count() for p in self.parts)

    def largest_part(self) -> int:
        """Mask of a largest part (ties broken by smallest minimum vertex)."""
        return max(self.parts, key=lambda p: (p.bit_count(), [-v for v in lex_key(p)]))


def _pattern_graph(pattern: str) -> Graph:
    try:
        pg = PATTERNS[pattern]
    except KeyError:
        raise GraphError(f"unknown pattern id {pattern!r}") from None
    if pg.n > MAX_PATTERN_VERTICES:
        raise GraphError(f"pattern {pattern!r} exceeds {MAX_PATTERN_VERTICES} vertices")
    return pg


def _partial_embeddable(rows: list[int], k: int, pg: Graph) -> bool:
    """Can the k-vertex graph given by rows map injectively into pg preserving
    adjacency and non-adjacency?  Tiny backtracking; k and pg.n are <= 5."""
    pn = pg.n
    if k > pn:
        return False
    used = [False] * pn
    assign = [0] * k

    def rec(i: int) -> bool:
        if i == k:
            return True
        want = rows[i]
        for cand in range(pn):
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


def _is_isomorphic_small(rows: list[int], pg: Graph) -> bool:
    """Exact isomorphism of a pg.n-vertex graph (rows) to the pattern."""
    if sorted(r.bit_count() for r in rows) != sorted(r.bit_count() for r in pg.adj):
        return False
    return _partial_embeddable(rows, pg.n, pg)


def find_induced(g: Graph, pattern: str) -> InducedWitness | None:
    """Lexicographically smallest vertex tuple inducing the pattern, or None.

    Exhaustive backtracking over ascending vertex tuples; a partial tuple is
    pruned as soon as its induced subgraph no longer embeds into the pattern.
    """
    pg = _pattern_graph(pattern)
    k = pg.n
    n = g.n
    if k > n:
        return None
    adj = g.adj
    chosen: list[int] = []
    rows: list[int] = []  # induced adjacency among chosen, little-endian in choice order

    def rec(start: int) -> tuple[int, ...] | None:
        depth = len(chosen)
        if depth == k:
            return tuple(chosen) if _is_isomorphic_small(rows, pg) else None
        # leave room for the remaining pattern vertices
        for v in range(start, n - (k - depth - 1)):
            row = 0
            av = adj[v]
            for j, u in enumerate(chosen):
                if av >> u & 1:
                    row |= 1 << j
            chosen.append(v)
            rows.append(row)
            for j in bits(row):
                rows[j] |= 1 << depth
            if _partial_embeddable(rows, depth + 1, pg):
                hit = rec(v + 1)
                if hit is not None:
                    return hit
            chosen.pop()
            rows.pop()
            for j in bits(row):
                rows[j] &= ~(1 << depth)
        return None

    hit = rec(0)
    return InducedWitness(hit, pattern) if hit is not None else None


def induces_pattern(g: Graph, vertices, pattern: str) -> bool:
    """Checker-side validation: do these vertices induce the pattern exactly?"""
    pg = _pattern_graph(pattern)
    vs = list(vertices)
    if len(vs) != pg.n or len(set(vs)) != pg.n:
        return False
    rows = []
    for v in vs:
        row = 0
        for j, u in enumerate(vs):
            if u != v and g.has_edge(v, u):
                row |= 1 << j
        rows.append(row)
    return _is_isomorphic_small(rows, pg)


def multipartite_decompose(g: Graph) -> Multipartition | InducedWitness:
    """Complete-multipartite structure of the graph, or an induced p2+p1 witness.

    The parts are the components of the complement; the graph is complete
    multipartite exactly when each such component is independent in g and
    completely joined to the rest.
    """
    comp = g.complement()
    parts = comp.components()
    ok = True
    for part in parts:
        for v in bits(part):
            if g.adj[v] & part:
                ok = False
                break
            if g.adj[v] != g.full & ~part:
                ok = False
                break
        if not ok:
            break
    if ok:
        return Multipartition(tuple(parts))
    witness = find_induced(g, "p2+p1")
    if witness is None:
        raise AssertionError("graph is not complete multipartite yet has no induced p2+p1")
    return witness

