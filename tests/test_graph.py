import random
from itertools import combinations

import pytest

from oracles import all_graphs, random_matching
from toughham import generators
from toughham.generators import (GenerationError, cobip, random_graph, random_in_class, relabel,
                                 split, two_cliques)
from toughham.graph import (Graph, GraphError, bit, bits, mask_of, reach,
                            transpose)
from toughham.graph6 import parse_graph6, write_graph6


def test_neighbors_examples():
    k3 = Graph.complete(3)
    assert k3.adj[0] == mask_of([1, 2])
    p3 = Graph.path(3)
    assert p3.adj[1] == mask_of([0, 2])
    assert p3.adj[1].bit_count() == 2
    assert Graph.empty(4).adj[2] == 0


def test_neighbors_out_of_range():
    with pytest.raises(GraphError):
        Graph.complete(3).has_edge(0, 3)
    with pytest.raises(GraphError):
        Graph.complete(3).has_edge(-1, 0)


def test_set_neighborhood_examples():
    p4 = Graph.path(4)
    assert p4.set_neighborhood(mask_of([1, 2])) == mask_of([0, 3])
    k4 = Graph.complete(4)
    assert k4.set_neighborhood(mask_of([0])) == mask_of([1, 2, 3])
    c5 = Graph.cycle(5)
    # direct evaluation of the definition: N({0,1}) = {1,2,4,0} minus {0,1}
    assert c5.set_neighborhood(mask_of([0, 1])) == mask_of([2, 4])


def test_components_examples():
    c6 = Graph.cycle(6)
    assert c6.components(mask_of([0, 3])) == [mask_of([1, 2]), mask_of([4, 5])]
    assert Graph.complete(5).components() == [mask_of(range(5))]
    pattern = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert len(pattern.components()) == 3


def test_construction_rejects_asymmetry_and_loops():
    with pytest.raises(GraphError):
        Graph(2, [0b10, 0b00])
    with pytest.raises(GraphError):
        Graph(2, [0b01, 0b01])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])


# every power-of-two stride from 1 to 512, at and either side of each
STRIDE_SIZES = (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                127, 128, 129, 255, 256, 257, 511, 512)


def columns_by_bit(rows, n):
    """Reference transpose, one bit at a time."""
    cols = [0] * n
    for i, row in enumerate(rows):
        for c in range(n):
            if row >> c & 1:
                cols[c] |= 1 << i
    return cols


def first_one_way_pair(adj):
    """The symmetry check the constructor made edge by edge."""
    for u in range(len(adj)):
        for w in bits(adj[u]):
            if not adj[w] >> u & 1:
                return f"asymmetric adjacency between {u} and {w}"
    return None


def test_transpose_matches_per_bit_reference():
    rng = random.Random(10)
    for n in STRIDE_SIZES:
        for p in (0.05, 0.5):
            # square, then fewer rows than columns
            rows = [sum(1 << c for c in range(n) if rng.random() < p) for _ in range(n)]
            assert transpose(rows, n) == columns_by_bit(rows, n), (n, p)
            few = rows[:rng.randrange(n + 1)] if n else []
            assert transpose(few, n) == columns_by_bit(few, n), (n, p)


def test_constructor_reports_the_first_one_way_pair():
    rng = random.Random(11)
    for n in (2, 3, 5, 8, 9, 17, 33, 64, 100):
        for _ in range(20):
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < 0.4])
            rows = list(g.adj)
            for _ in range(rng.randrange(1, 4)):
                u, v = rng.sample(range(n), 2)
                rows[u] ^= 1 << v
            want = first_one_way_pair(rows)
            if want is None:
                assert Graph(n, rows).adj == tuple(rows)
                continue
            with pytest.raises(GraphError) as err:
                Graph(n, rows)
            assert str(err.value) == want


def agrees_with_checking_constructor(h):
    """The rows of a graph built without checks pass the constructor's
    checks (it raises otherwise) and give the same graph."""
    ref = Graph(h.n, h.adj)
    return type(h.adj) is tuple and (h.n, h.adj, h.full) == (ref.n, ref.adj, ref.full)


def unchecked_builds(g, rng):
    """The graphs that the builders storing rows unchecked make from g."""
    yield parse_graph6(write_graph6(g))
    perm = list(range(g.n))
    rng.shuffle(perm)
    yield relabel(g, perm)
    yield relabel(g, perm[::-1])
    non_edges = [(u, v) for u, v in combinations(range(g.n), 2) if not g.adj[u] >> v & 1]
    yield g.add_edges(random_matching(rng, non_edges, g.n))


def test_unchecked_builders_agree_with_checking_constructor(monkeypatch):
    rng = random.Random(15)
    monkeypatch.setattr(generators, "REJECTION_CAP", 2)
    for n in range(6):
        for g in all_graphs(n):
            for h in unchecked_builds(g, rng):
                assert agrees_with_checking_constructor(h), g.adj
    for n in range(41):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(n, p, rng.randrange(1 << 30))
            assert agrees_with_checking_constructor(g), (n, p)
            for h in unchecked_builds(g, rng):
                assert agrees_with_checking_constructor(h), (n, p)
            try:
                h = random_in_class(n, p, rng.randrange(1 << 30))
            except GenerationError:
                continue
            assert agrees_with_checking_constructor(h), (n, p)
    for a in range(5):
        for b in range(1, 6):
            for seed in range(3):
                for d in range(b + 1):
                    assert agrees_with_checking_constructor(two_cliques(a, b, d, seed))
                    assert agrees_with_checking_constructor(split(b, a, d, seed))
                for p in (0.0, 0.5, 1.0):
                    assert agrees_with_checking_constructor(cobip(a, b, p, seed))
    for shape in ((30, 80, 24), (23, 277, 2), (60, 200, 40)):
        assert agrees_with_checking_constructor(two_cliques(*shape, 1))
    assert agrees_with_checking_constructor(split(290, 10, 24, 1))
    assert agrees_with_checking_constructor(cobip(120, 150, 0.1, 1))


def test_add_edges_rejects_bad_vertices_and_loops():
    g = Graph.path(4)
    rows = g.adj
    assert g.add_edges([(0, 3), (1, 3)]) == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3),
                                                               (0, 3), (1, 3)])
    for bad in ([(0, 4)], [(-1, 2)], [(0, 2), (3, 3)], [(0, 2), (1, 9)]):
        with pytest.raises(GraphError):
            g.add_edges(bad)
        assert g.adj is rows and g == Graph.path(4)


def naive_components(n, edges, removed):
    """Components by a plain adjacency-list BFS, ordered by minimum vertex."""
    nbrs = {v: [] for v in range(n)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    left = [v for v in range(n) if not removed >> v & 1]
    seen, comps = set(), []
    for root in left:
        if root in seen:
            continue
        seen.add(root)
        queue, comp = [root], 0
        for x in queue:
            comp |= 1 << x
            for y in nbrs[x]:
                if y not in seen and not removed >> y & 1:
                    seen.add(y)
                    queue.append(y)
        comps.append(comp)
    return comps


def test_random_invariants():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 11)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        for v in range(n):
            for w in bits(g.adj[v]):
                assert g.has_edge(w, v)
        removed = rng.getrandbits(n)
        comps = g.components(removed)
        union = 0
        for comp in comps:
            assert comp & union == 0
            union |= comp
            # no edge leaves a component
            assert g.set_neighborhood(comp) & (g.full & ~removed) & ~comp == 0
        assert union == g.full & ~removed
        assert comps == naive_components(n, edges, removed)
        assert g.component_count(removed) == len(comps)
        # a start of several bits reaches the union of its single-bit reaches
        allowed = g.full & ~removed
        start = rng.getrandbits(n) & allowed
        union = 0
        for v in bits(start):
            union |= reach(g.adj, bit(v), allowed)
        assert reach(g.adj, start, allowed) == union


def test_all_graphs_count():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_graphs(4)) == 64
