import random
from fractions import Fraction
from itertools import permutations

import pytest

from oracles import all_graphs, random_edge_graph
from toughham.graph import Graph, GraphError, mask_of
from toughham.hamilton import (CycleCert, dirac_cycle, ham_cycle_forced,
                               insert_vertices, multipartite_ham_path,
                               validate_cycle, validate_path)
from toughham.metrics import OracleLimitExceeded


def brute_ham_cycle(g, forced=()):
    """Permutation-enumeration oracle."""
    n = g.n
    if n < 3:
        return False
    want = {frozenset(e) for e in forced}
    for perm in permutations(range(1, n)):
        order = (0,) + perm
        es = {frozenset((order[i], order[(i + 1) % n])) for i in range(n)}
        if want <= es and all(g.has_edge(order[i], order[(i + 1) % n])
                              for i in range(n)):
            return True
    return False


def test_forced_examples():
    c5 = Graph.cycle(5)
    got = ham_cycle_forced(c5, [(0, 1)])
    assert got is not None and validate_cycle(c5, got)
    k4 = Graph.complete(4)
    got = ham_cycle_forced(k4, [(0, 1), (2, 3)])
    assert got is not None and validate_cycle(k4, got)
    es = {frozenset((got.order[i], got.order[(i + 1) % 4])) for i in range(4)}
    assert frozenset((0, 1)) in es and frozenset((2, 3)) in es
    assert ham_cycle_forced(Graph.path(4)) is None


def test_forced_preconditions():
    k4 = Graph.complete(4)
    with pytest.raises(GraphError):
        ham_cycle_forced(k4, [(0, 1), (1, 2)])  # shared endpoint
    with pytest.raises(GraphError):
        ham_cycle_forced(Graph.cycle(5), [(0, 2)])  # not an edge
    with pytest.raises(OracleLimitExceeded):
        ham_cycle_forced(Graph.cycle(40), cap=32)


def test_oracle_equivalence_all_small_graphs():
    for n in (3, 4, 5):
        for g in all_graphs(n):
            got = ham_cycle_forced(g)
            assert (got is not None) == brute_ham_cycle(g)
            if got is not None:
                assert validate_cycle(g, got)


def test_oracle_equivalence_random_with_forced():
    # spans the full n <= 9 oracle-equivalence regime
    rng = random.Random(6)
    for _ in range(120):
        n = rng.randrange(3, 10)
        g = random_edge_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        edges = list(g.edges())
        rng.shuffle(edges)
        forced, used = [], 0
        for u, v in edges:
            if used & (1 << u) or used & (1 << v):
                continue
            forced.append((u, v))
            used |= (1 << u) | (1 << v)
            if len(forced) == 2:
                break
        got = ham_cycle_forced(g, forced)
        assert (got is not None) == brute_ham_cycle(g, forced)
        if got is not None:
            assert validate_cycle(g, got)
            es = {frozenset((got.order[i], got.order[(i + 1) % n])) for i in range(n)}
            assert all(frozenset(e) in es for e in forced)


def test_dirac_examples():
    for g in (Graph.complete(4), Graph.cycle(4), Graph.complete_multipartite([3, 3, 3])):
        cert = dirac_cycle(g)
        assert validate_cycle(g, cert)
    with pytest.raises(GraphError):
        dirac_cycle(Graph.cycle(5))  # delta = 2 < 5/2
    with pytest.raises(GraphError):
        dirac_cycle(Graph.complete(2))


def dirac_instance(seed, n):
    """Random graph patched up to minimum degree n/2, deterministically."""
    rng = random.Random(seed)
    g = random_edge_graph(rng, n, 0.55 + 0.3 * rng.random())
    rows = list(g.adj)
    need = (n + 1) // 2
    for v in range(n):
        while rows[v].bit_count() < need:
            w = rng.randrange(n)
            if w != v and not rows[v] >> w & 1:
                rows[v] |= 1 << w
                rows[w] |= 1 << v
    return Graph(n, rows)


def test_dirac_random_smoke():
    for seed in range(40):
        n = 3 + (seed * 7) % 98
        g = dirac_instance(seed, n)
        assert validate_cycle(g, dirac_cycle(g))


def mp_path_brute(g, x, y):
    n = g.n
    middle = [v for v in range(n) if v not in (x, y)]
    for perm in permutations(middle):
        order = (x,) + perm + (y,)
        if all(g.has_edge(order[i], order[i + 1]) for i in range(n - 1)):
            return True
    return False


def test_multipartite_ham_path_examples():
    k22 = Graph.complete_multipartite([2, 2])
    path = multipartite_ham_path(k22, 0, 2)
    assert path is not None and validate_path(k22, path)
    assert len(path.order) == 4 and path.ends == (0, 2)
    k2 = Graph.complete(2)
    path = multipartite_ham_path(k2, 0, 1)
    assert path.order == (0, 1)
    star = Graph.complete_multipartite([1, 3])
    assert multipartite_ham_path(star, 1, 2) is None
    with pytest.raises(GraphError):  # C5 has no multipartition
        multipartite_ham_path(Graph.cycle(5), 0, 1)


def test_multipartite_ham_path_brute_force_agreement():
    # every complete multipartite graph up to 8 vertices, every endpoint pair
    def partitions(total, most):
        if total == 0:
            yield []
            return
        for first in range(min(total, most), 0, -1):
            for rest in partitions(total - first, first):
                yield [first] + rest

    for n in range(2, 9):
        for sizes in partitions(n, n):
            g = Graph.complete_multipartite(sizes)
            for x in range(n):
                for y in range(n):
                    if x == y:
                        continue
                    got = multipartite_ham_path(g, x, y)
                    assert (got is not None) == mp_path_brute(g, x, y), (sizes, x, y)
                    if got is not None:
                        assert validate_path(g, got)
                        assert got.ends == (x, y)
                        assert mask_of(got.order) == g.full


def test_insert_vertices_examples():
    # apex over a 4-cycle
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0),
                             (4, 0), (4, 1), (4, 2), (4, 3)])
    grown, fallbacks = insert_vertices(g, CycleCert((0, 1, 2, 3)), mask_of([4]),
                                       Fraction(1))
    assert validate_cycle(g, grown) and fallbacks == 0
    # c6 plus a vertex seeing 0, 1, 3: inserted between the consecutive pair
    g = Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)]
                         + [(6, 0), (6, 1), (6, 3)])
    grown, fallbacks = insert_vertices(g, CycleCert(tuple(range(6))), mask_of([6]),
                                       Fraction(1))
    assert validate_cycle(g, grown) and fallbacks == 0
    assert grown.order.index(6) in (grown.order.index(0) + 1, grown.order.index(1) + 1)
    # empty pending set: unchanged
    c4 = Graph.cycle(4)
    same, _ = insert_vertices(c4, CycleCert((0, 1, 2, 3)), 0, Fraction(2))
    assert same.order == (0, 1, 2, 3)


def test_insert_vertices_hypothesis_check():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0)])
    with pytest.raises(GraphError):
        insert_vertices(g, CycleCert((0, 1, 2, 3)), mask_of([4]), Fraction(1))


def test_insert_vertices_oracle_fallback():
    # vertex adjacent to alternating cycle vertices but never a consecutive
    # pair; insertion needs the exact oracle to reroute
    g = Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)]
                         + [(6, 0), (6, 2), (6, 4), (1, 3), (1, 5), (3, 5)])
    grown, fallbacks = insert_vertices(g, CycleCert(tuple(range(6))), mask_of([6]),
                                       Fraction(1))
    assert validate_cycle(g, grown)
    assert fallbacks == 1
