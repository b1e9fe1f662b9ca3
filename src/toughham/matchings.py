"""Constructive star-matchings.

A star-matching is a vertex-disjoint union of stars; the demanded-degree
vertices are its centers and a leaf adjacent to a center is that center's
partner.  The augmenting search ``_stars`` finds, for a demand f on the
centers, stars where every center keeps degree exactly f(v) and every
leaf is used once; when that is impossible it reads a Hall-type
deficiency witness off the failed augmentation.  ``k1t_matching``, the
engine's entry point, turns that deficiency into a cutset certificate:
the neighborhood of the deficient center set shatters the graph at ratio
below 2.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, GraphError, bit, bits
from .metrics import ToughnessWitness, is_independent


class StarMatching(NamedTuple):
    """Disjoint stars as (center, leaves) with leaves listed ascending."""

    stars: tuple[tuple[int, tuple[int, ...]], ...]


class DeficiencyWitness(NamedTuple):
    """Center subset whose neighborhood cannot supply its leaf demand."""

    subset: int
    neighborhood_size: int


def _stars(adj, y_side: int, demand: dict[int, int]) -> StarMatching | DeficiencyWitness:
    """Stars with ``demand[x]`` leaves in ``y_side`` at each center x, or a
    Hall-type deficiency.

    Unit-capacity augmenting paths, one per demand slot, centers in the
    order of ``demand`` and leaves in ascending id.  Only the edges from
    each center into ``y_side`` are read, so a host graph serves as well as
    a bipartite one.  On failure the centers reached by the last
    alternating search are the deficiency witness: all their neighbors are
    matched into them, yet their total demand strictly exceeds them.
    """
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


def k1t_matching(g: Graph, centers: int) -> StarMatching | ToughnessWitness:
    """Star-matching with two leaves per star, centered exactly at ``centers``.

    On a 2-tough graph this always succeeds.  Otherwise the deficient
    centers X have |N(X)| < 2|X|, and removing N(X) isolates each of them
    and, when |X| = 1, leaves another vertex of the noncomplete graph: a
    cutset of ratio below 2.
    """
    if g.is_complete() or not is_independent(g, centers):
        raise GraphError("k1t_matching needs a noncomplete graph and independent centers")
    got = _stars(g.adj, g.full & ~centers, dict.fromkeys(bits(centers), 2))
    if isinstance(got, StarMatching):
        return got
    cutset = g.set_neighborhood(got.subset)
    return ToughnessWitness(cutset, g.component_count(cutset))
