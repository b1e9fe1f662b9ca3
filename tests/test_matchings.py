import random
from fractions import Fraction

import pytest

from oracles import all_graphs, validate_star_matching
from toughham.generators import random_graph
from toughham.graph import Graph, GraphError, bits, mask_of
from toughham.matchings import DeficiencyWitness, StarMatching, _stars, k1t_matching
from toughham.metrics import (ToughnessWitness, validate_toughness_witness,
                              verify_tough)


def brute_b_matching_exists(g, x_side, y_side, f):
    """Assign f(x) distinct Y-neighbors to every x, by exhaustive search."""
    xs = list(bits(x_side))

    def rec(i, used):
        if i == len(xs):
            return True
        x = xs[i]
        need = f(x)
        options = [y for y in bits(g.adj[x] & y_side) if y not in used]

        def pick(chosen, start):
            if len(chosen) == need:
                return rec(i + 1, used | set(chosen))
            for j in range(start, len(options)):
                if pick(chosen + [options[j]], j + 1):
                    return True
            return False

        return pick([], 0)

    return rec(0, set())


def bipartite_instance(rng, nx, ny, p):
    n = nx + ny
    x_side, y_side = mask_of(range(nx)), mask_of(range(nx, n))
    edges = [(u, v) for u in range(nx) for v in range(nx, n) if rng.random() < p]
    return Graph.from_edges(n, edges), x_side, y_side


def f_stars(g, x_side, y_side, demand):
    """The augmenting search of ``k1t_matching`` with a demand per center."""
    return _stars(g.adj, y_side, {v: demand[v] for v in bits(x_side)})


def test_f_star_matching_exact_supply():
    g, x, y = Graph.complete_multipartite([2, 4]), mask_of([0, 1]), mask_of([2, 3, 4, 5])
    got = f_stars(g, x, y, {0: 2, 1: 2})
    assert isinstance(got, StarMatching)
    assert validate_star_matching(g, got, centers=x, degree=2)


def test_f_star_matching_short_supply():
    g, x, y = Graph.complete_multipartite([2, 3]), mask_of([0, 1]), mask_of([2, 3, 4])
    got = f_stars(g, x, y, {0: 2, 1: 2})
    assert isinstance(got, DeficiencyWitness)
    assert got.subset == mask_of([0, 1]) and got.neighborhood_size == 3


def test_f_star_matching_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    got = f_stars(g, mask_of([0]), mask_of([1]), {0: 1})
    assert isinstance(got, StarMatching)
    assert got.stars == ((0, (1,)),)


def test_agreement_with_brute_force():
    rng = random.Random(12)
    seen_both = set()
    for _ in range(120):
        nx = rng.randrange(1, 5)
        ny = rng.randrange(1, 9 - nx)
        g, x, y = bipartite_instance(rng, nx, ny, rng.choice([0.3, 0.6, 0.9]))
        demand = {v: rng.randrange(1, 3) for v in bits(x)}
        got = f_stars(g, x, y, demand)
        feasible = brute_b_matching_exists(g, x, y, lambda v: demand[v])
        assert isinstance(got, StarMatching) == feasible
        seen_both.add(feasible)
        if isinstance(got, StarMatching):
            assert validate_star_matching(g, got, centers=x)
            for center, leaves in got.stars:
                assert len(leaves) == demand[center]
        else:
            # Hall violation checks out exactly
            assert got.subset & ~x == 0
            nbhd = g.set_neighborhood(got.subset) & y
            assert nbhd.bit_count() == got.neighborhood_size
            assert got.neighborhood_size < sum(demand[v] for v in bits(got.subset))
    assert seen_both == {True, False}


def test_k1t_matching_deficiency_becomes_cutset():
    # two centers in the size-4 side of a 1,1,4 multipartite graph: their
    # joint neighborhood has two vertices, so it shatters the graph at 2/4
    g = Graph.complete_multipartite([1, 1, 4])
    got = k1t_matching(g, mask_of([2, 3]))
    assert isinstance(got, ToughnessWitness)
    assert got.cutset == mask_of([0, 1]) and got.component_count == 4
    assert got.ratio == Fraction(1, 2)
    assert validate_toughness_witness(g, got, Fraction(2))


def test_k1t_matching_star_hub():
    g = Graph.from_edges(6, [(0, i) for i in range(1, 6)])  # hub at 0
    got = k1t_matching(g, mask_of([1, 2]))
    assert isinstance(got, ToughnessWitness)
    assert got.cutset == mask_of([0])
    assert got.ratio == Fraction(1, 5)


def test_k1t_matching_cycle():
    got = k1t_matching(Graph.cycle(6), mask_of([0]))
    assert isinstance(got, StarMatching)
    assert got.stars == ((0, (1, 5)),)


def test_k1t_matching_preconditions():
    with pytest.raises(GraphError):
        k1t_matching(Graph.complete(4), mask_of([0]))
    with pytest.raises(GraphError):
        k1t_matching(Graph.cycle(5), mask_of([0, 1]))


def _two_leaf_corpus():
    """(graph, centers): every noncomplete graph on n <= 5 with each of its
    nonempty independent sets, then seeded graphs on n 6..12 with the
    independent sets among a few random vertex sets."""
    for n in range(6):
        for g in all_graphs(n):
            if not g.is_complete():
                for s in range(1, 1 << n):
                    if all(g.adj[v] & s == 0 for v in bits(s)):
                        yield g, s
    rng = random.Random(1212)
    for _ in range(600):
        n = rng.randrange(6, 13)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]), rng.randrange(1 << 30))
        if g.is_complete():
            continue
        for _ in range(8):
            s = rng.randrange(1, 1 << n)
            if all(g.adj[v] & s == 0 for v in bits(s)):
                yield g, s


def test_two_leaf_stars_or_a_witness_below_two():
    # a deficient center set X has |N(X)| < 2|X| and removing N(X) isolates
    # X, so every call gives two-leaf stars or a cutset of ratio below 2
    stars = witnesses = 0
    for g, centers in _two_leaf_corpus():
        got = k1t_matching(g, centers)
        if isinstance(got, StarMatching):
            assert validate_star_matching(g, got, centers=centers, degree=2), (g.adj, centers)
            stars += 1
        else:
            assert validate_toughness_witness(g, got, Fraction(2)), (g.adj, centers)
            witnesses += 1
    assert stars > 1000 and witnesses > 1000, (stars, witnesses)


def test_k1t_succeeds_on_tough_graphs():
    # 2-toughness plus an independent center set always yields the matching
    rng = random.Random(77)
    checked = 0
    for _ in range(250):
        n = rng.randrange(4, 11)
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < 0.7])
        if g.is_complete():
            continue
        if verify_tough(g, Fraction(2)) is not None:
            continue
        centers = 0
        for v in range(n):
            if g.adj[v] & centers == 0:
                centers |= 1 << v
            if centers.bit_count() == 2:
                break
        if centers.bit_count() < 2:
            continue
        got = k1t_matching(g, centers)
        assert isinstance(got, StarMatching), n
        assert validate_star_matching(g, got, centers=centers, degree=2)
        checked += 1
    assert checked > 20
