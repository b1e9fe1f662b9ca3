import random
from fractions import Fraction
from itertools import permutations

import pytest

from oracles import all_graphs, random_edge_graph
from toughham import hamilton
from toughham.graph import Graph, GraphError, bit, mask_of
from toughham.hamilton import (CycleCert, dirac_cycle, ham_cycle_forced,
                               insert_vertices, multipartite_ham_path,
                               validate_cycle, validate_path)
from toughham.metrics import (OracleLimitExceeded, ToughnessWitness,
                              validate_toughness_witness)
from toughham.recognition import multipartite_parts


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
    path = multipartite_ham_path(multipartite_parts(k22), 0, 2)
    assert path is not None and validate_path(k22, path)
    assert len(path.order) == 4 and path.ends == (0, 2)
    path = multipartite_ham_path(multipartite_parts(Graph.complete(2)), 0, 1)
    assert path.order == (0, 1)
    star = Graph.complete_multipartite([1, 3])
    assert multipartite_ham_path(multipartite_parts(star), 1, 2) is None
    # the parts alone define the graph: ends must differ and lie in them
    for x, y in [(0, 0), (0, 4), (-1, 0), (3, 7)]:
        with pytest.raises(GraphError):
            multipartite_ham_path(multipartite_parts(k22), x, y)


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
            parts = multipartite_parts(g)
            for x in range(n):
                for y in range(n):
                    if x == y:
                        continue
                    got = multipartite_ham_path(parts, x, y)
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


def test_insert_vertices_rotation():
    # vertex adjacent to alternating cycle vertices but never a consecutive
    # pair; the successors 1 and 3 of its neighbors 0 and 2 are adjacent,
    # so one rotation places it
    g = Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)]
                         + [(6, 0), (6, 2), (6, 4), (1, 3), (1, 5), (3, 5)])
    grown, fallbacks = insert_vertices(g, CycleCert(tuple(range(6))), mask_of([6]),
                                       Fraction(1))
    assert validate_cycle(g, grown)
    assert fallbacks == 1


def _no_oracle(*args, **kwargs):
    raise AssertionError("insert_vertices called the exact oracle")


def test_insert_vertices_rotates_past_the_oracle_cap(monkeypatch):
    # 40 vertices, over the exact oracle's cap of 32: the vertex sees 0, 2,
    # ..., 36 of a 39-cycle, no two consecutive, and the chord 1-3 joins the
    # successors of 0 and 2
    g = Graph.from_edges(40, [(i, (i + 1) % 39) for i in range(39)]
                         + [(39, i) for i in range(0, 37, 2)] + [(1, 3)])
    monkeypatch.setattr(hamilton, "ham_cycle_forced", _no_oracle)
    grown, rotations = insert_vertices(g, CycleCert(tuple(range(39))), mask_of([39]),
                                       Fraction(11))
    assert validate_cycle(g, grown)
    assert rotations == 1


def test_insert_vertices_witness():
    # no consecutive pair and no chord between the successors 1, 3, 5: the
    # vertex and the successors are independent, and N of them shatters G
    g = Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)]
                         + [(6, 0), (6, 2), (6, 4)])
    got = insert_vertices(g, CycleCert(tuple(range(6))), mask_of([6]), Fraction(1))
    assert got == (ToughnessWitness(mask_of([0, 2, 4]), 4), 0)
    assert validate_toughness_witness(g, got[0], Fraction(1))


def consecutive_pair_insertion(g, order, v):
    """The cycle with v after the first of two consecutive neighbors of v,
    or None when there is no such pair."""
    k = len(order)
    for i in range(k):
        if g.has_edge(v, order[i]) and g.has_edge(v, order[(i + 1) % k]):
            return CycleCert(tuple(order[:i + 1]) + (v,) + tuple(order[i + 1:]))
    return None


def insertion_instances():
    """(g, a Hamilton cycle of g - v, v) for each vertex v with g - v
    Hamiltonian, over every labeled graph on 4-5 vertices and seeded random
    graphs on 7-16."""
    rng = random.Random(20)
    graphs = [g for n in (4, 5) for g in all_graphs(n)]
    graphs += [random_edge_graph(rng, n, p) for n in range(7, 17)
               for p in (0.3, 0.5, 0.7) for _ in range(12)]
    for g in graphs:
        for v in range(g.n):
            sub, vmap = g.induced(g.full & ~bit(v))
            cyc = ham_cycle_forced(sub)
            if cyc is not None:
                yield g, CycleCert(tuple(vmap[i] for i in cyc.order)), v


def test_insert_vertices_differential():
    # just above its insertion threshold and at t = 11, each vertex goes in
    # between a consecutive pair exactly as the reference puts it, or by one
    # rotation, or else yields a witness the checker accepts
    kinds = {"pair": 0, "rotation": 0, "witness": 0}
    for g, cyc, v in insertion_instances():
        degree = g.adj[v].bit_count()
        ref = consecutive_pair_insertion(g, cyc.order, v)
        for t in (Fraction(g.n, degree + 1) - 1 + Fraction(1, 100), Fraction(11)):
            if degree <= Fraction(g.n, t + 1) - 1:
                continue
            got, rotations = insert_vertices(g, cyc, bit(v), t)
            if ref is not None:
                assert (got, rotations) == (ref, 0)
                kinds["pair"] += 1
            elif isinstance(got, CycleCert):
                assert validate_cycle(g, got) and rotations == 1
                kinds["rotation"] += 1
            else:
                assert validate_toughness_witness(g, got, t) and rotations == 0
                kinds["witness"] += 1
    assert min(kinds.values()) > 100, kinds
