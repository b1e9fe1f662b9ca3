"""Constructive star-matchings.

A star-matching is a vertex-disjoint union of stars; the demanded-degree
vertices are its centers and a leaf adjacent to a center is that center's
partner.  The bipartite builder finds, for a demand f on the X side, a
subgraph where every X vertex keeps degree exactly f(v) and every used Y
vertex has degree one; when that is impossible it reads a Hall-type
deficiency witness off the failed augmentation.  The toughness-backed
variant turns that deficiency into a cutset certificate: the neighborhood
of the deficient center set shatters the graph at ratio below t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, GraphError, bit, bits
from .metrics import ToughnessWitness, is_independent, validate_toughness_witness


@dataclass(frozen=True)
class StarMatching:
    """Disjoint stars as (center, leaves) with leaves listed ascending."""

    stars: tuple[tuple[int, tuple[int, ...]], ...]

    def centers(self) -> int:
        m = 0
        for center, _ in self.stars:
            m |= bit(center)
        return m


@dataclass(frozen=True)
class DeficiencyWitness:
    """Center subset whose neighborhood cannot supply its leaf demand."""

    subset: int
    neighborhood_size: int


def validate_star_matching(g: Graph, m: StarMatching, centers: int | None = None,
                           degree: int | None = None) -> bool:
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
    if centers is not None and m.centers() != centers:
        return False
    return True


def f_star_matching(h: Graph, x_side: int, y_side: int, f) -> StarMatching | DeficiencyWitness:
    """Stars centered exactly at the X side with degrees f(v), leaves in Y.

    ``h`` must be bipartite between the two given sides.  Implemented as
    unit-capacity augmenting paths, one per demand slot, processing centers
    in ascending id and trying leaves in ascending id.  On failure the set
    of centers reached by the last alternating search is the deficiency
    witness: all its neighbors are matched into it, yet its total demand
    strictly exceeds them.
    """
    if x_side & y_side:
        raise GraphError("bipartition sides overlap")
    for v in bits(x_side):
        if h.adj[v] & x_side:
            raise GraphError("X side is not independent in the bipartite instance")
    for v in bits(y_side):
        if h.adj[v] & y_side:
            raise GraphError("Y side is not independent in the bipartite instance")
    demand = {v: int(f(v)) if callable(f) else int(f[v]) for v in bits(x_side)}
    for v, d in demand.items():
        if d < 1:
            raise GraphError(f"demand at center {v} must be positive, got {d}")
    return _stars(h.adj, y_side, demand)


def _stars(adj, y_side: int, demand: dict[int, int]) -> StarMatching | DeficiencyWitness:
    """The augmenting search of ``f_star_matching``, centers ascending; it
    reads only the edges from each center into ``y_side``, so a host graph
    serves as well as the bipartite one."""
    match: dict[int, int] = {}  # leaf -> center

    def augment(x: int, visited: set[int]) -> bool:
        for y in bits(adj[x] & y_side):
            if y in visited:
                continue
            visited.add(y)
            owner = match.get(y)
            if owner is None or augment(owner, visited):
                match[y] = x
                return True
        return False

    for x, d in demand.items():
        for _ in range(d):
            visited: set[int] = set()
            if not augment(x, visited):
                subset = bit(x)
                for y in visited:
                    subset |= bit(match[y])
                return DeficiencyWitness(subset=subset, neighborhood_size=len(visited))

    stars: dict[int, list[int]] = {x: [] for x in demand}
    for y, x in match.items():
        stars[x].append(y)
    return StarMatching(tuple((x, tuple(sorted(ls))) for x, ls in stars.items()))


def k1t_matching(g: Graph, centers: int, t: Fraction) -> StarMatching | ToughnessWitness:
    """Star-matching with floor(t) leaves per star, centered exactly at ``centers``.

    On a t-tough graph this always succeeds; when the bipartite demand is
    deficient the deficiency converts into a toughness violation, because
    removing the deficient centers' neighborhood isolates each of them.
    """
    if g.is_complete():
        raise GraphError("k1t_matching requires a noncomplete graph")
    if not is_independent(g, centers):
        raise GraphError("centers must form an independent set")
    if centers == 0:
        return StarMatching(())
    leaves_per_star = t.numerator // t.denominator if isinstance(t, Fraction) else int(t)
    if leaves_per_star < 1:
        raise GraphError(f"floor(t) must be at least 1, got t={t}")
    got = _stars(g.adj, g.full & ~centers, dict.fromkeys(bits(centers), leaves_per_star))
    if isinstance(got, StarMatching):
        return got
    return _deficiency_to_toughness(g, got, t)


def _deficiency_to_toughness(g: Graph, d: DeficiencyWitness, t) -> ToughnessWitness:
    cutset = g.set_neighborhood(d.subset)
    count = g.component_count(cutset)
    if count >= 2:
        w = ToughnessWitness(cutset, count)
        if validate_toughness_witness(g, w, t):
            return w
    # Degenerate case: a single center adjacent to everything else, with
    # n - 1 < floor(t).  Any vertex with a non-neighbor then cuts at ratio
    # at most (n - 2)/2 < t.
    for v in range(g.n):
        if g.adj[v] | bit(v) != g.full:
            cutset = g.adj[v]
            count = g.component_count(cutset)
            w = ToughnessWitness(cutset, count)
            if validate_toughness_witness(g, w, t):
                return w
    raise AssertionError("deficiency produced no valid toughness witness")
