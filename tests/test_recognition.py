import random
from itertools import combinations, permutations

import pytest

from oracles import all_graphs, complete_multipartite_graphs, random_edge_graph
from toughham import recognition
from toughham.generators import complete_split_join, random_in_class, relabel
from toughham.graph import Graph, GraphError, bits, mask_of
from toughham.hamilton import multipartite_ham_path
from toughham.metrics import independence
from toughham.recognition import (FORESTS, InducedWitness, Multipartition,
                                  _backtrack, _forest_witness, find_induced, holds,
                                  induces_pattern, multipartite_decompose,
                                  multipartite_parts)


def forest_graph(pattern):
    edges, solo = FORESTS[pattern]
    return Graph.from_edges(2 * edges + solo, [(2 * i, 2 * i + 1) for i in range(edges)])


def induces_by_permutation(g, vertices, pattern):
    """Reference for the shape test: some bijection of the ids onto the
    forest's vertices keeps adjacency and non-adjacency of every pair."""
    pg = forest_graph(pattern)
    vs = list(vertices)
    if len(vs) != pg.n or len(set(vs)) != pg.n:
        return False
    pairs = list(combinations(range(pg.n), 2))
    return any(all(g.has_edge(vs[i], vs[j]) == pg.has_edge(perm[i], perm[j]) for i, j in pairs)
               for perm in permutations(range(pg.n)))


def brute_find(g, pattern):
    """Try every vertex subset in lexicographic order with the checker's
    shape test, which the permutation reference pins below."""
    k = forest_graph(pattern).n
    for combo in combinations(range(g.n), k):
        if induces_pattern(g, combo, pattern):
            return combo
    return None


def test_find_induced_examples():
    c5 = Graph.cycle(5)
    assert find_induced(c5, "2p2+p1") is None  # exhaustive: C5 has 5 edges, not 2
    pattern = Graph.from_edges(5, [(0, 1), (2, 3)])
    hit = find_induced(pattern, "2p2+p1")
    assert hit is not None and hit.vertices == (0, 1, 2, 3, 4)
    p4 = Graph.path(4)
    assert find_induced(p4, "p2+p1").vertices == (0, 1, 3)


def test_find_induced_is_lexicographically_smallest():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randrange(3, 9)
        g = random_edge_graph(rng, n)
        for pattern in FORESTS:
            hit = find_induced(g, pattern)
            want = brute_find(g, pattern)
            assert (hit.vertices if hit else None) == want


def test_find_induced_oracle_equivalence_n10():
    rng = random.Random(5)
    for _ in range(25):
        g = random_edge_graph(rng, 10, rng.choice([0.3, 0.5, 0.7]))
        for pattern in FORESTS:
            assert (find_induced(g, pattern) is None) == (brute_find(g, pattern) is None)


def assert_scan_agrees(g):
    """find_induced and the greedy forest search return brute force's
    witness, and so does the backtracker for 2p2+p1."""
    for pattern, shape in FORESTS.items():
        want = brute_find(g, pattern)
        if pattern == "2p2+p1":
            assert _backtrack(g) == want, g.adj
        hit = find_induced(g, pattern)
        assert (hit.vertices if hit is not None else None) == want, (g.adj, pattern)
        assert _forest_witness(g.adj, g.full, *shape) == want, (g.adj, pattern)
        if pattern == "p2+p1":
            mp = multipartite_decompose(g)
            assert (mp.vertices if isinstance(mp, InducedWitness) else None) == want


def test_scan_agrees_on_every_graph_up_to_six_vertices():
    for n in range(7):
        for g in all_graphs(n):
            assert_scan_agrees(g)


def toggled(rng, g):
    """g with one random vertex pair toggled between edge and non-edge."""
    u, v = rng.sample(range(g.n), 2)
    rows = list(g.adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(g.n, rows)


def test_scan_agrees_on_random_and_near_free_graphs():
    rng = random.Random(29)
    for _ in range(120):
        n = rng.randrange(7, 17)
        assert_scan_agrees(random_edge_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])))
    # near-free: one pair away from a complete multipartite or a sampled
    # pattern-free graph, so witnesses are rare and sit anywhere
    for seed in range(40):
        sizes = [rng.randrange(1, 5) for _ in range(rng.randrange(2, 7))]
        assert_scan_agrees(toggled(rng, Graph.complete_multipartite(sizes)))
        free = random_in_class(rng.randrange(7, 14), rng.choice([0.5, 0.7]), seed)
        assert_scan_agrees(free)
        assert_scan_agrees(toggled(rng, free))


def test_scan_tests_each_vertex_once_on_free_graphs(monkeypatch):
    # a complete multipartite G holds no p2+p1, so one test of G answers;
    # in two disjoint cliques G - N[a] is complete multipartite at every a,
    # so the scan skips each vertex after one test instead of testing once
    # per edge
    calls = []
    parts = recognition._parts
    monkeypatch.setattr(recognition, "_parts",
                        lambda adj, x: calls.append(x) or parts(adj, x))
    for g in (Graph.complete_multipartite([5, 5, 5]), complete_split_join(20, 10)):
        calls.clear()
        assert find_induced(g, "2p2+p1") is None
        assert calls == [g.full]
    two_cliques = Graph.from_edges(10, [(u, v) for u, v in combinations(range(10), 2)
                                        if u // 5 == v // 5])
    calls.clear()
    assert find_induced(two_cliques, "2p2+p1") is None
    assert len(calls) <= two_cliques.n + 1 < two_cliques.edge_count()


def test_complete_multipartite_graphs_hold_no_forest():
    graphs = 0
    for g in complete_multipartite_graphs(10, seed=8):
        graphs += 1
        for pattern in FORESTS:
            assert not holds(g, pattern) and find_induced(g, pattern) is None, g.adj
    assert graphs == 138  # the partitions of n = 1..10


def test_holds_decides_what_find_induced_finds():
    # holds is find_induced's first step, so this pins that the witness
    # search after it always finds one, and brute force pins both
    for n in range(7):
        for g in all_graphs(n):
            for pattern in FORESTS:
                want = brute_find(g, pattern) is not None
                assert holds(g, pattern) == (find_induced(g, pattern) is not None) == want
    rng = random.Random(43)
    for _ in range(90):
        g = random_edge_graph(rng, rng.randrange(7, 15), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        for pattern in FORESTS:
            assert holds(g, pattern) == (find_induced(g, pattern) is not None), g.adj


def test_multipartite_parts_are_the_decomposition():
    for n in range(6):
        for g in all_graphs(n):
            mp = multipartite_decompose(g)
            parts = multipartite_parts(g)
            assert parts == (mp.parts if isinstance(mp, Multipartition) else None)


def assert_masked_routes_match_the_induced_route(g, x):
    """multipartite_parts, multipartite_decompose and multipartite_ham_path
    inside the mask x give what they give on G[x] built as its own graph,
    mapped back to g's ids."""
    sub, vmap = g.induced(x)
    parts, sub_parts = multipartite_parts(g, x), multipartite_parts(sub)
    assert parts == (None if sub_parts is None else
                     tuple(mask_of(vmap[i] for i in bits(p)) for p in sub_parts)), (g.adj, x)
    got, want = multipartite_decompose(g, x), multipartite_decompose(sub)
    if isinstance(want, Multipartition):
        assert got == Multipartition(parts)
    else:
        assert got == InducedWitness(tuple(vmap[i] for i in want.vertices), "p2+p1")
    if parts is None:
        return 0
    for i, j in permutations(range(sub.n), 2):
        local = multipartite_ham_path(sub_parts, i, j)
        path = multipartite_ham_path(parts, vmap[i], vmap[j])
        assert (path and path.order) == (local and tuple(vmap[v] for v in local.order))
    return sub.n * (sub.n - 1)


def test_masked_routes_match_the_induced_route():
    # every graph on at most five vertices, every mask
    small = sum(assert_masked_routes_match_the_induced_route(g, x)
                for n in range(6) for g in all_graphs(n) for x in range(1 << n))
    # seeded graphs on 7-14 vertices: random, complete multipartite with
    # shuffled ids (every mask of one is complete multipartite) and one pair
    # away from that
    seeded = 0
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randrange(7, 15)
        cuts = sorted(rng.sample(range(1, n), rng.randrange(2, 6)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        multipartite = relabel(Graph.complete_multipartite(sizes), rng.sample(range(n), n))
        for g in (random_edge_graph(rng, n, rng.choice([0.3, 0.6, 0.9])),
                  multipartite, toggled(rng, multipartite)):
            for _ in range(8):
                seeded += assert_masked_routes_match_the_induced_route(g, rng.getrandbits(g.n))
    assert (small, seeded) == (76310, 23090)  # endpoint pairs compared


def test_largest_part_breaks_ties_by_smallest_minimum_vertex():
    # the size key alone picks what a key that also prefers the part with
    # the smaller sorted vertices picks, since parts come ordered by
    # minimum vertex and max keeps the first maximal one
    def by_size_then_vertices(parts):
        return max(parts, key=lambda p: (p.bit_count(), [-v for v in bits(p)]))

    tied = 0
    for seed in (1, 2, 3):
        for g in complete_multipartite_graphs(9, seed):
            parts = multipartite_parts(g)
            sizes = sorted(p.bit_count() for p in parts)
            if len(sizes) > 1 and sizes[-1] == sizes[-2]:
                tied += 1
                assert Multipartition(parts).largest_part() == by_size_then_vertices(parts)
    assert tied == 3 * 29


def test_find_induced_rejects_unknown_pattern():
    g = Graph.path(5)
    for name in ("k33", "p1", "p4", "2p2", "p4+p1", "2P2+P1"):
        with pytest.raises(GraphError):
            find_induced(g, name)
        with pytest.raises(GraphError):
            holds(g, name)
        with pytest.raises(GraphError):
            induces_pattern(g, range(5), name)


def test_induces_pattern_matches_isomorphism_reference():
    # every labelled graph on 3 and 5 vertices, its ids in every order
    for n in (3, 5):
        for g in all_graphs(n):
            for pattern in FORESTS:
                want = induces_by_permutation(g, range(n), pattern)
                for order in permutations(range(n)):
                    assert induces_pattern(g, order, pattern) == want, (g.adj, order, pattern)
    # repeated ids and wrong counts never pass
    g = Graph.from_edges(6, [(0, 1), (2, 3)])
    for vs in [(0, 1, 2, 3, 3), (0, 1, 2, 2, 4), (0, 0, 4), (1, 0, 1), (0, 1, 2, 3),
               (0, 1, 2, 3, 4, 5), (0, 1), (0, 1, 4, 5), ()]:
        for pattern in FORESTS:
            assert not (induces_pattern(g, vs, pattern)
                        or induces_by_permutation(g, vs, pattern)), (vs, pattern)
    assert induces_pattern(g, (3, 0, 4, 2, 1), "2p2+p1")
    assert induces_pattern(g, (4, 0, 1), "p2+p1")


def test_multipartite_decompose_examples():
    k23 = Graph.complete_multipartite([2, 3])
    mp = multipartite_decompose(k23)
    assert isinstance(mp, Multipartition)
    assert sorted(p.bit_count() for p in mp.parts) == [2, 3]
    p3 = Graph.path(3)
    mp = multipartite_decompose(p3)
    assert isinstance(mp, Multipartition)
    assert sorted(p.bit_count() for p in mp.parts) == [1, 2]
    assert mask_of([0, 2]) in mp.parts
    wit = multipartite_decompose(Graph.path(4))
    assert isinstance(wit, InducedWitness)
    assert wit.vertices == (0, 1, 3)


def test_multipartition_iff_no_pattern():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randrange(1, 11)
        g = random_edge_graph(rng, n, rng.choice([0.3, 0.6, 0.9]))
        got = multipartite_decompose(g)
        free = find_induced(g, "p2+p1") is None
        assert isinstance(got, Multipartition) == free
        if isinstance(got, Multipartition):
            # parts partition the graph, are independent, and join completely
            union = 0
            for part in got.parts:
                assert part & union == 0
                union |= part
                for v in bits(part):
                    assert g.adj[v] & part == 0
                    assert g.adj[v] == g.full & ~part
            assert union == g.full
            # the independence number is the largest part
            alpha, _ = independence(g)
            assert alpha == max(p.bit_count() for p in got.parts)
        else:
            assert induces_pattern(g, got.vertices, "p2+p1")


def test_minimal_cutsets_join_completely():
    # on a pattern-free graph every minimal cutset sees everything outside it
    rng = random.Random(4)
    for _ in range(40):
        parts = [rng.randrange(1, 4) for _ in range(rng.randrange(2, 5))]
        g = Graph.complete_multipartite(parts)
        n = g.n
        for code in range(1 << n):
            if len(g.components(code)) < 2:
                continue
            minimal = all(len(g.components(code & ~(1 << v))) < 2
                          for v in bits(code))
            if not minimal:
                continue
            outside = g.full & ~code
            for v in bits(code):
                assert g.adj[v] & outside == outside


def test_pattern_library_shapes():
    # the library is the two forests the engine names
    assert FORESTS == {"2p2+p1": (2, 1), "p2+p1": (1, 1)}
    for pattern in FORESTS:
        pg = forest_graph(pattern)
        assert find_induced(pg, pattern).vertices == tuple(range(pg.n))
        assert induces_pattern(pg, range(pg.n), pattern)
        assert find_induced(Graph.empty(pg.n - 1), pattern) is None
