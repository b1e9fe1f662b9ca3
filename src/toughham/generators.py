"""Deterministic instance factories for experiments and the test corpus."""

from __future__ import annotations

import random
from fractions import Fraction

from .graph import Graph
# find_induced stays bound: the benchmark harness times generators.find_induced by name
from .recognition import find_induced, holds  # noqa: F401

KINDS = ("complete", "complete_multipartite", "complete_split_join",
         "case1_synthetic", "random_in_class", "random")

REJECTION_CAP = 2000


class GenerationError(ValueError):
    pass


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def complete_split_join(clique: int, independent: int) -> Graph:
    """Join of a clique with an edgeless graph (the n=24 acceptance shape)."""
    return Graph.complete_multipartite([1] * clique + [independent])


def random_in_class(n: int, p: float, seed: int, cap: int = REJECTION_CAP) -> Graph:
    """Rejection-sample a graph with no induced forbidden pattern."""
    rng = random.Random(seed)
    for _ in range(cap):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if not holds(g, "2p2+p1"):
            return g
    raise GenerationError(
        f"no pattern-free sample within {cap} tries at n={n}, p={p}")


def case1_synthetic(g1_parts, s2: int, d2_parts, seed: int = 0) -> Graph:
    """Instance that enters case 1 of the pipeline and flows through it.

    Layout: u,v sit in the first two parts of a complete multipartite block
    G1; an s2-clique of universal vertices bridges everything; a second
    complete multipartite block D2 hangs off the clique with no edges back
    to G1.  The punctured union neighborhood of uv is then exactly
    G1-minus-{u,v} plus the clique, it leaves two components, and the
    instance is free of the forbidden pattern by construction (any two
    disjoint edges that avoid the universal clique stay inside one block,
    where a fifth untouched vertex never exists).

    The seed only relabels vertices; structure is deterministic.
    """
    g1_parts = list(g1_parts)
    d2_parts = list(d2_parts)
    if len(g1_parts) < 2 or min(g1_parts) < 1:
        raise GenerationError("need at least two nonempty G1 parts for the edge uv")
    if s2 < 2:
        raise GenerationError("need at least two universal bridge vertices")
    if sum(d2_parts) < 1:
        raise GenerationError("the far block cannot be empty")
    if sum(d2_parts) > 1 and len(d2_parts) < 2:
        raise GenerationError("a far block with two or more vertices needs two parts"
                              " to stay connected")
    n1 = sum(g1_parts)
    nd = sum(d2_parts)
    n = n1 + s2 + nd
    s_size = (n1 - 2) + s2
    if 12 * (s_size + 2) > 5 * n:
        raise GenerationError(
            f"case-1 precondition fails: |S|+2 = {s_size + 2} exceeds 5n/12 = {Fraction(5 * n, 12)}")
    if 6 * nd < n:
        raise GenerationError(
            "far block too small: bridge vertices would not reach the high-outside-degree side")

    edges = []
    # G1 block: complete multipartite over g1_parts, vertices 0..n1-1
    marks = []
    start = 0
    for size in g1_parts:
        marks.append(range(start, start + size))
        start += size
    for i, pa in enumerate(marks):
        for pb in marks[i + 1:]:
            edges.extend((a, b) for a in pa for b in pb)
    # universal clique: n1..n1+s2-1
    bridge = range(n1, n1 + s2)
    edges.extend((a, b) for a in bridge for b in range(a + 1, n1 + s2))
    edges.extend((a, b) for b in bridge for a in range(n1))
    edges.extend((b, c) for b in bridge for c in range(n1 + s2, n))
    # far block: complete multipartite over d2_parts
    dmarks = []
    start = n1 + s2
    for size in d2_parts:
        dmarks.append(range(start, start + size))
        start += size
    for i, pa in enumerate(dmarks):
        for pb in dmarks[i + 1:]:
            edges.extend((a, b) for a in pa for b in pb)

    g = Graph.from_edges(n, edges)
    if seed:
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        g = relabel(g, perm)
    return g


def relabel(g: Graph, perm) -> Graph:
    """New graph with vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def generate(kind: str, params: dict, seed: int = 0) -> Graph:
    """Deterministic dispatch over the supported instance kinds."""
    if kind == "complete":
        return Graph.complete(int(params["n"]))
    if kind == "complete_multipartite":
        return Graph.complete_multipartite([int(x) for x in params["parts"]])
    if kind == "complete_split_join":
        return complete_split_join(int(params["clique"]), int(params["independent"]))
    if kind == "case1_synthetic":
        return case1_synthetic(params["g1_parts"], int(params["s2"]),
                               params["d2_parts"], seed=seed)
    if kind == "random_in_class":
        return random_in_class(int(params["n"]), float(params.get("p", 0.5)), seed,
                               cap=int(params.get("cap", REJECTION_CAP)))
    if kind == "random":
        return random_graph(int(params["n"]), float(params.get("p", 0.5)), seed)
    raise GenerationError(f"unknown generator kind {kind!r}; expected one of {KINDS}")
