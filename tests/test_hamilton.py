import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from oracles import (all_graphs, case2_instance, induced, random_edge_graph, random_matching,
                     reference_ham_cycle_forced, reference_root_test)
from test_golden import CORPORA
from toughham import hamilton, pipeline
from toughham.certificates import RunConfig
from toughham.generators import case1_synthetic, complete_split_join, relabel
from toughham.graph import Graph, GraphError, bit, mask_of
from toughham.hamilton import (CycleCert, closure_cycle, dirac_cycle, first_leaf,
                               ham_cycle_forced, insert_vertices, multipartite_ham_path,
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
    # past the cap only the pruned search raises: a sparse 40-vertex graph
    # whose root passes and whose first leaf dead-ends
    g = random_edge_graph(random.Random(3), 40, 0.15)
    assert reference_root_test(g) and reference_ham_cycle_forced(g, first_leaf=True) is None
    with pytest.raises(OracleLimitExceeded):
        ham_cycle_forced(g, cap=32)


def test_oracle_past_its_cap_returns_a_closing_first_leaf():
    got = ham_cycle_forced(Graph.cycle(40), cap=32)
    assert got == first_leaf(Graph.cycle(40)) == CycleCert(tuple(range(40)))


def test_oracle_past_its_cap_answers_a_failing_root_without_raising(monkeypatch):
    g = complete_split_join(30, 40)
    rng = random.Random(0)
    perm = list(range(g.n))
    rng.shuffle(perm)
    g = relabel(g, perm)
    calls = count_reach(monkeypatch)
    # 39 or 40 pairwise non-adjacent twins outgrow the 35 places left, so the
    # root's twin bound answers before its reach, at 70 vertices
    assert ham_cycle_forced(g, cap=32) is None and calls == []


def test_oracle_past_its_cap_is_its_first_leaf_its_closure_or_its_root_test():
    # seeded graphs on 33-60 vertices with random forced matchings: a closing
    # first leaf is the answer, then a complete closure's cycle; a dead end
    # with an open closure raises when the root passes and gives None when
    # it fails
    rng = random.Random(33)
    seen = Counter()
    for _ in range(240):
        n = rng.randrange(33, 61)
        g = random_edge_graph(rng, n, rng.choice([0.08, 0.12, 0.2, 0.5, 0.8]))
        forced = random_matching(rng, g.edges(), rng.randrange(4))
        leaf = reference_ham_cycle_forced(g, forced, first_leaf=True)
        walk = first_leaf(g, forced)
        assert (None if walk is None else walk.order) == leaf
        if leaf is not None:
            assert ham_cycle_forced(g, forced, cap=32) == walk
            seen["leaf"] += 1
        elif not reference_root_test(g, forced):
            assert ham_cycle_forced(g, forced, cap=32) is None
            seen["root"] += 1
        elif (closed := closure_cycle(g, forced)) is not None:
            assert ham_cycle_forced(g, forced, cap=32) == closed
            seen["closure"] += 1
        else:
            with pytest.raises(OracleLimitExceeded):
                ham_cycle_forced(g, forced, cap=32)
            seen["raise"] += 1
    assert min(seen.values()) >= 20, seen


# sha256 over closure_cycle's answers on the draws below, one line each:
# those outside the Ore case, taken before the Ore case was split off and
# so the built closure's cycles; and those in it
CLOSURE_DIGESTS = {
    "general": "356144aec11992acf5b83b7f8067a70538d00f05fd89597de6b41779fc1d71ee",
    "ore-case": "6b5857a1a90a4d662b56118e9180c428920f0f5353e59086c5377ee7a8c41eee",
}


def test_closure_cycle_is_a_checked_cycle_through_its_forced_edges():
    # every graph on 3-6 vertices, then seeded ones on 7-40, each with a
    # random mask and a random forced matching added inside it: a cycle
    # covers the mask, is a cycle of the induced graph and holds every
    # forced edge; a complete closure on at most 10 vertices has a cycle by
    # the unpruned search too, and the degree-sum condition on every
    # non-adjacent pair closes at once, as does the Ore case (twice the
    # minimum degree meets the sum)
    rng = random.Random(36)
    seen = Counter()
    digests = {name: hashlib.sha256() for name in CLOSURE_DIGESTS}

    def check(g, within, forced):
        g2, vmap = induced(g, within)
        local = {v: i for i, v in enumerate(vmap)}
        l_local = [(local[a], local[b]) for a, b in forced]
        want = g2.n + len(forced)
        ore = all(g2.adj[a].bit_count() + g2.adj[b].bit_count() >= want
                  for a, b in combinations(range(g2.n), 2) if not g2.has_edge(a, b))
        ore_case = 2 * g2.min_degree() >= want
        got = closure_cycle(g, forced, within)
        digests["ore-case" if ore_case else "general"].update(f"{got and got.order}\n".encode())
        if got is None:
            assert not ore and not ore_case, (g.adj, within, forced)
            seen["open"] += 1
            return
        seen["ore-case"] += ore_case
        assert mask_of(got.order) == within and len(got.order) == g2.n
        assert validate_cycle(g2, CycleCert(tuple(local[v] for v in got.order)))
        edges = {frozenset(e) for e in zip(got.order, got.order[1:] + got.order[:1])}
        assert all(frozenset(e) in edges for e in forced), (g.adj, within, forced)
        if g2.n <= 10:
            assert reference_ham_cycle_forced(g2, l_local) is not None
        seen["ore" if ore else "closed"] += 1

    def draw(g):
        inside = rng.sample(range(g.n), rng.randrange(3, g.n + 1))
        forced = random_matching(rng, combinations(sorted(inside), 2), rng.randrange(4))
        check(g.add_edges(forced), mask_of(inside), forced)

    for n in range(3, 7):
        for g in all_graphs(n):
            draw(g)
    for _ in range(1500):
        draw(random_edge_graph(rng, rng.randrange(7, 41), rng.choice([0.3, 0.5, 0.7, 0.9])))
    assert min(seen.values()) >= 100, seen
    assert {name: h.hexdigest() for name, h in digests.items()} == CLOSURE_DIGESTS


def test_closure_cycle_preconditions():
    k5 = Graph.complete(5)
    assert closure_cycle(k5, (), mask_of([0, 1])) is None
    with pytest.raises(GraphError):
        closure_cycle(Graph.cycle(5), [(0, 2)])  # not an edge


def test_a_forced_end_outside_the_mask_is_rejected():
    # one shared check: no solver returns a "cycle of G[within]" through a
    # vertex outside within
    k5 = Graph.complete(5)
    for solve in (first_leaf, ham_cycle_forced, closure_cycle):
        with pytest.raises(GraphError, match="inside the mask"):
            solve(k5, [(0, 1)], within=mask_of([0, 2, 3]))


def test_first_leaf_inside_a_mask_is_the_walk_on_the_induced_subgraph(monkeypatch):
    # the bridge's walk and oracle: G + L inside G2's mask, in G's ids,
    # against the walk, the unpruned search's first leaf and the oracle on
    # G2* = G2 + L built alone; the ascending map keeps every (fewest free
    # neighbours, lowest id) choice, the root and the twin classes, so the
    # two oracle runs test the same children (as many reach calls)
    cap = 24
    calls = count_reach(monkeypatch)

    def oracle(g, forced, *within):
        calls.clear()
        try:
            got = ham_cycle_forced(g, forced, cap, *within)
        except OracleLimitExceeded:
            return "cap", len(calls)
        return got and got.order, len(calls)

    def check(g, inside, forced):
        """Whether the walk closes, after every comparison."""
        g_l, within = g.add_edges(forced), mask_of(inside)
        g2star, vmap = induced(g_l, within)
        local = {v: i for i, v in enumerate(vmap)}
        l_local = [(local[a], local[b]) for a, b in forced]
        walk = first_leaf(g_l, forced, within)
        alone = first_leaf(g2star, l_local)
        leaf = reference_ham_cycle_forced(g2star, l_local, first_leaf=True)
        assert (alone is None) == (walk is None) == (leaf is None)
        if walk is not None:
            assert walk.order == tuple(vmap[i] for i in alone.order)
            assert walk.order == tuple(vmap[i] for i in leaf)
        want, tests = oracle(g2star, l_local)
        if want not in (None, "cap"):
            want = tuple(vmap[i] for i in want)
        assert oracle(g_l, forced, within) == (want, tests), (g.adj, forced, within)
        if walk is not None:
            assert want == walk.order
        outcomes["leaf" if walk is not None else want if want in (None, "cap") else "search"] += 1
        return walk is not None

    rng = random.Random(34)
    closed, outcomes = 0, Counter()
    for _ in range(800):
        n = rng.randrange(3, 41)
        g = random_edge_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        inside = rng.sample(range(n), rng.randrange(3, n + 1))
        forced = random_matching(rng, combinations(sorted(inside), 2), rng.randrange(4))
        closed += check(g, inside, forced)
    assert closed == 307
    # G[inside] complete multipartite, its first part often too large for a
    # cycle, and random edges elsewhere: twin classes of G[inside] that the
    # rows of G outside it split
    for _ in range(200):
        n = rng.randrange(5, 12)
        inside = rng.sample(range(n), rng.randrange(5, n + 1))
        part = {v: rng.randrange(4) if rng.random() < 0.5 else 0 for v in inside}
        g = Graph.from_edges(n, [(u, v) for u, v in random_edge_graph(rng, n).edges()
                                 if u not in part or v not in part]
                             + [(u, v) for u, v in combinations(inside, 2) if part[u] != part[v]])
        forced = random_matching(rng, [(u, v) for u, v in g.edges() if u in part and v in part],
                                 rng.randrange(3))
        check(g, inside, forced)
    assert min(outcomes.values()) >= 20, outcomes


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
        forced = random_matching(rng, g.edges(), 2)
        got = ham_cycle_forced(g, forced)
        assert (got is not None) == brute_ham_cycle(g, forced)
        if got is not None:
            assert validate_cycle(g, got)
            es = {frozenset((got.order[i], got.order[(i + 1) % n])) for i in range(n)}
            assert all(frozenset(e) in es for e in forced)


def test_oracle_returns_the_unpruned_search_cycle():
    # every prune is a necessary condition, so the pruned search meets the
    # same first cycle, or proves there is none
    def agree(g, forced):
        got = ham_cycle_forced(g, forced)
        assert (got.order if got else None) == reference_ham_cycle_forced(g, forced), (g.adj,
                                                                                        forced)

    for n in range(7):
        for g in all_graphs(n):
            agree(g, ())
            agree(g, list(g.edges())[:1])
    rng = random.Random(19)
    for _ in range(300):
        g = random_edge_graph(rng, rng.randrange(7, 10), rng.choice([0.3, 0.5, 0.7, 0.9]))
        agree(g, random_matching(rng, g.edges(), rng.randrange(3)))


def bridge_oracle_inputs(monkeypatch, runs):
    """(G2*, L, cap) of every first-leaf walk that ``pipeline._bridge`` makes
    on a G2* under its cap while ``runs()`` runs, in G2*'s own ids: rebuilt
    from the walk's G + L, L and G2's mask."""
    seen, caps = [], []
    bridge, walk = pipeline._bridge, pipeline.first_leaf

    def spy_bridge(g, g2_mask, paths, cfg, *args):
        caps.append(cfg.cap_oracle)
        try:
            return bridge(g, g2_mask, paths, cfg, *args)
        finally:
            caps.pop()

    def spy_walk(g, forced, within):
        g2star, vmap = induced(g, within)
        if g2star.n <= caps[-1]:
            local = {v: i for i, v in enumerate(vmap)}
            seen.append((g2star, [(local[a], local[b]) for a, b in forced], caps[-1]))
        return walk(g, forced, within)

    monkeypatch.setattr(pipeline, "_bridge", spy_bridge)
    monkeypatch.setattr(pipeline, "first_leaf", spy_walk)
    runs()
    monkeypatch.undo()
    return seen


def count_reach(monkeypatch):
    """A list that gets one entry per call of the oracle's ``reach``."""
    calls, reach = [], hamilton.reach

    def spy(*args):
        calls.append(args)
        return reach(*args)

    monkeypatch.setattr(hamilton, "reach", spy)
    return calls


def test_oracle_on_the_bridge_inputs_returns_a_closing_first_leaf_untested(monkeypatch):
    # the bridge's G2* with its forced edges L: from the golden corpora, the
    # case-1 synthetic draws and the case-2 family at t = 3/2
    def runs():
        for corpus in CORPORA.values():
            list(corpus())
        rng = random.Random(29)
        cfg = RunConfig(t=Fraction(3, 2))
        for shape in (([1, 1], 2, [2] * 3), ([1, 1], 3, [2] * 4), ([1, 1], 4, [2] * 5),
                      ([2, 1], 3, [2] * 5)):
            for _ in range(6):
                pipeline.run_theorem(case1_synthetic(*shape, seed=rng.randrange(1 << 31)), cfg)
        for pairs in (6, 7, 9):
            for _ in range(6):
                pipeline.run_theorem(case2_instance(pairs, 2, 2, rng), cfg)

    inputs = bridge_oracle_inputs(monkeypatch, runs)
    assert len(inputs) >= 50
    assert any(forced for _, forced, _ in inputs) and any(not forced for _, forced, _ in inputs)
    calls = count_reach(monkeypatch)
    closed = 0
    for g, forced, cap in inputs:
        calls.clear()
        got = ham_cycle_forced(g, forced, cap=cap)
        assert got is not None and got.order == reference_ham_cycle_forced(g, forced)
        if reference_ham_cycle_forced(g, forced, first_leaf=True) is not None:
            # the root's test is the one reach: the first leaf is not tested
            assert len(calls) == 1, (g.adj, forced)
            closed += 1
    assert closed >= 0.8 * len(inputs)


def test_oracle_root_test_answers_an_unbalanced_split_join(monkeypatch):
    g = complete_split_join(8, 10)
    rng = random.Random(0)
    perm = list(range(g.n))
    rng.shuffle(perm)
    g = relabel(g, perm)
    assert g.adj[0].bit_count() == g.n - 1  # vertex 0 lies on the clique
    calls = count_reach(monkeypatch)
    # ten pairwise non-adjacent twins fit at most nine of the 17 places left
    assert ham_cycle_forced(g) is None and calls == []


def test_oracle_restarts_from_the_root_at_the_first_dead_end(monkeypatch):
    g = complete_split_join(6, 8)
    rng = random.Random(0)
    perm = list(range(g.n))
    rng.shuffle(perm)
    g = relabel(g, perm)
    assert g.adj[0].bit_count() == 6  # vertex 0 lies on the independent side
    calls = count_reach(monkeypatch)
    # seven twins fit the 13 places left, so the root passes; its untested
    # first leaf dead-ends, and back at the root every child leaves seven
    # twins for 12 places, so the root's one reach is the only one (resuming
    # at the dead end would test the untested prefix's children instead)
    assert reference_ham_cycle_forced(g, first_leaf=True) is None
    assert ham_cycle_forced(g) is None and len(calls) == 1


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


def test_multipartite_ham_path_of_singleton_parts_is_in_id_order():
    # a complete G1 takes this route: x, the other vertices ascending, y
    rng = random.Random(17)
    for k in range(2, 12):
        ids = sorted(rng.sample(range(40), k))
        for x, y in permutations(ids, 2):
            got = multipartite_ham_path([1 << v for v in ids], x, y)
            assert got.order == (x, *[v for v in ids if v not in (x, y)], y)


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
            sub, vmap = induced(g, g.full & ~bit(v))
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
