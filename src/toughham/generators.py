"""Deterministic instance factories for experiments and the test corpus.

Every factory builds row masks, never an edge list: a random draw sets the
upper rows pair by pair in row-major order, one ``rng.random()`` per pair,
and ORs them with their transpose; ``relabel`` renames rows, transposes
them and renames them again.  The seeded dense families ``two_cliques``,
``cobip`` and ``split`` set their cross edges in one block of rows and
take the rest from the transpose; every draw of them is 2p2+p1-free, at
any n up to the graph size cap.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graph import Graph, transpose
from .recognition import holds
# find_induced stays bound: the benchmark harness times generators.find_induced by name
from .recognition import find_induced  # noqa: F401

REJECTION_CAP = 2000


class GenerationError(ValueError):
    pass


def _draw(n: int, p: float, rng: random.Random) -> Graph:
    """Each pair u < v in row-major order is an edge when its draw is below
    p; the upper rows are ORed with their transpose."""
    upper = [0] * n
    for u in range(n):
        row = 0
        for v in range(u + 1, n):
            if rng.random() < p:
                row |= 1 << v
        upper[u] = row
    return Graph._closed_under_transpose(n, upper)


def random_graph(n: int, p: float, seed: int) -> Graph:
    return _draw(n, p, random.Random(seed))


def complete_split_join(clique: int, independent: int) -> Graph:
    """Join of a clique with an edgeless graph (the n=24 acceptance shape)."""
    return Graph.complete_multipartite([1] * clique + [independent])


def random_in_class(n: int, p: float, seed: int) -> Graph:
    """Rejection-sample a graph with no induced forbidden pattern."""
    rng = random.Random(seed)
    for _ in range(REJECTION_CAP):
        g = _draw(n, p, rng)
        if not holds(g):
            return g
    raise GenerationError(
        f"no pattern-free sample within {REJECTION_CAP} tries at n={n}, p={p}")


def _cliques_joined(a: int, b: int, cross) -> Graph:
    """K_a on 0..a-1 and K_b on a..a+b-1, with ``cross[u]`` the mask, over
    0..b-1, of the neighbours of u < a in K_b.  The complement is
    bipartite, hence triangle-free, while the complement of 2p2+p1 has a
    triangle, so the graph is in the class."""
    ka, kb = (1 << a) - 1, ((1 << b) - 1) << a
    rows = [ka & ~(1 << u) | row << a for u, row in enumerate(cross)]
    return Graph._closed_under_transpose(a + b, rows + [kb & ~(1 << v) for v in range(a, a + b)])


def two_cliques(a: int, b: int, d: int, seed: int) -> Graph:
    """K_a and K_b, each vertex of K_a joined to d vertices of K_b, one
    ``rng.sample`` per vertex in order."""
    rng = random.Random(seed)
    return _cliques_joined(a, b, [sum(1 << w for w in rng.sample(range(b), d))
                                  for _ in range(a)])


def cobip(a: int, b: int, p: float, seed: int) -> Graph:
    """K_a and K_b, each cross pair, in row-major order, an edge when its
    draw is below p; alpha <= 2."""
    rng = random.Random(seed)
    return _cliques_joined(a, b, [sum(1 << w for w in range(b) if rng.random() < p)
                                  for _ in range(a)])


def split(b: int, a: int, d: int, seed: int) -> Graph:
    """K_b on 0..b-1 and an independent set on b..b+a-1, each of its
    vertices joined to d vertices of K_b, one ``rng.sample`` per vertex in
    order.  A split graph induces no 2K2, so every draw is in the class."""
    rng = random.Random(seed)
    rows = [(1 << b) - 1 & ~(1 << v) for v in range(b)]
    rows += [sum(1 << w for w in rng.sample(range(b), d)) for _ in range(a)]
    return Graph._closed_under_transpose(b + a, rows)


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

    # G1 on 0..n1-1, the universal clique next, as s2 parts of one vertex,
    # then the far block; a vertex sees its own block and the clique, bar
    # its own part
    g1 = (1 << n1) - 1
    bridge = ((1 << s2) - 1) << n1
    far = ((1 << n) - 1) ^ g1 ^ bridge
    rows = []
    start = 0
    for block, sizes in ((g1, g1_parts), (g1 | far, [1] * s2), (far, d2_parts)):
        for size in sizes:
            part = ((1 << size) - 1) << start
            rows += [(block | bridge) & ~part] * size
            start += size
    g = Graph(n, rows)
    if seed:
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        g = relabel(g, perm)
    return g


def relabel(g: Graph, perm) -> Graph:
    """New graph with vertex v renamed perm[v], perm a permutation of
    0..n-1: the rows are renamed, transposed and renamed again."""
    if sorted(perm) != list(range(g.n)):
        raise GenerationError(f"relabelling is not a permutation of 0..{g.n - 1}")
    rows = [0] * g.n
    for v, row in zip(perm, g.adj):
        rows[v] = row
    out = [0] * g.n
    for v, col in zip(perm, transpose(rows, g.n)):
        out[v] = col
    return Graph._of_rows(g.n, out)

