"""Metrics against independent full-enumeration oracles.

The naive oracles below use plain sets and itertools, sharing no code with
the bitset solvers they check.
"""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from oracles import (all_graphs, complete_multipartite_graphs, cutsets_by_brute_force, induced,
                     naive_components, random_edge_graph, reference_pair_cut)
from toughham import metrics
from toughham.generators import two_cliques
from toughham.graph import Graph, bits, mask_of
from toughham.metrics import (INF, OracleLimitExceeded, connectivity, independence,
                              probe_tough, scattering, toughness,
                              validate_scattering_set, validate_toughness_witness,
                              verify_tough)


def naive_kappa(n, edge_set):
    """Size of the smallest vertex set whose removal disconnects the graph,
    with the n-1 convention for complete graphs."""
    for k in range(n):
        if any(naive_components(n, edge_set, set(c)) >= 2
               for c in combinations(range(n), k)):
            return k
    return max(n - 1, 0)


def naive_metrics(g):
    """(toughness, scattering, kappa, alpha) by full enumeration."""
    n = g.n
    edge_set = {frozenset(e) for e in g.edges()}
    tough, scat = None, None
    for k in range(n):
        for combo in combinations(range(n), k):
            c = naive_components(n, edge_set, set(combo))
            if c < 2:
                continue
            r = Fraction(k, c)
            tough = r if tough is None else min(tough, r)
            scat = c - k if scat is None else max(scat, c - k)
    if tough is None:
        tough = scat = INF
    kappa = naive_kappa(n, edge_set)
    alpha = max(len(c) for k in range(n + 1) for c in combinations(range(n), k)
                if all(frozenset(p) not in edge_set for p in combinations(c, 2)))
    return tough, scat, kappa, alpha


def test_toughness_examples():
    assert toughness(Graph.complete(5)) == (INF, None)
    val, wit = toughness(Graph.cycle(6))
    assert val == 1 and wit.ratio == 1
    val, wit = toughness(Graph.complete_multipartite([2, 4]))
    assert val == Fraction(1, 2)
    assert wit.cutset.bit_count() == 2 and wit.component_count == 4


def test_verify_tough_examples():
    join = Graph.complete_multipartite([1] * 22 + [2])
    assert verify_tough(join, Fraction(11)) is None
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    wit = verify_tough(disconnected, Fraction(1, 4))
    assert wit is not None and wit.cutset == 0
    wit = verify_tough(Graph.cycle(6), Fraction(2))
    assert wit is not None and wit.ratio < 2
    # no ratio is below 0, so the sweep ends at once
    assert verify_tough(Graph.cycle(6), Fraction(0)) is None


def test_scattering_examples():
    val, ss = scattering(Graph.path(4))
    assert val == 1 and validate_scattering_set(Graph.path(4), ss)
    assert scattering(Graph.complete(4)) == (INF, None)
    val, _ = scattering(Graph.cycle(4))
    assert val == 0


def test_connectivity_examples():
    kappa, cut = connectivity(Graph.complete_multipartite([3, 3]))
    assert kappa == 3 and cut.bit_count() == 3
    assert connectivity(Graph.path(5))[0] == 1
    assert connectivity(Graph.complete(4)) == (3, None)


def test_independence_examples():
    assert independence(Graph.cycle(5))[0] == 2
    assert independence(Graph.complete(9))[0] == 1
    alpha, aset = independence(Graph.empty(7))
    assert alpha == 7 and aset == (1 << 7) - 1


def _closed_corpus():
    """The graphs the closed forms answer: one complete multipartite graph
    per multiset of part sizes on n <= 7, K_1..K_7 among them."""
    for g in complete_multipartite_graphs(7, seed=5):
        assert metrics._closed(g, g.full) is not None
        yield g


def test_oracle_equivalence_small():
    rng = random.Random(99)
    randoms = [random_edge_graph(rng, rng.randrange(1, 8), rng.choice([0.2, 0.5, 0.8]))
               for _ in range(80)]
    for g in [*_closed_corpus(), *randoms]:
        tough, scat, kappa, alpha = naive_metrics(g)
        got_t, wit_t = toughness(g)
        got_s, wit_s = scattering(g)
        assert got_t == tough
        assert got_s == scat
        assert connectivity(g)[0] == kappa
        assert independence(g)[0] == alpha
        if wit_t is not None:
            assert validate_toughness_witness(g, wit_t, tough + 1)
            assert wit_t.ratio == tough
        if wit_s is not None:
            assert validate_scattering_set(g, wit_s) and wit_s.value == scat


def test_verify_tough_agrees_with_toughness():
    rng = random.Random(42)
    grid = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(11)]
    randoms = [random_edge_graph(rng, rng.randrange(2, 9), rng.choice([0.3, 0.6, 0.9]))
               for _ in range(60)]
    for g in [*_closed_corpus(), *randoms]:
        tau, _ = toughness(g)
        for t in grid:
            wit = verify_tough(g, t)
            assert (wit is None) == (tau >= t)
            if wit is not None:
                assert validate_toughness_witness(g, wit, t)


def test_kappa_at_most_delta():
    rng = random.Random(63)
    for _ in range(60):
        n = rng.randrange(1, 12)
        g = random_edge_graph(rng, n, rng.choice([0.3, 0.6, 0.9]))
        assert connectivity(g)[0] <= g.min_degree()


def _seeded_matching(rng, n):
    """1 to n // 2 disjoint pairs of a shuffled vertex order; a pair may
    already be an edge."""
    order = rng.sample(range(n), n)
    return [(order[2 * i], order[2 * i + 1]) for i in range(rng.randrange(1, n // 2 + 1))]


def _graphs_with_matchings():
    """Every graph on 2 to 6 vertices with one seeded matching, then seeded
    graphs on 7 to 14 vertices with two each."""
    rng = random.Random(21)
    for n in range(2, 7):
        for g in all_graphs(n):
            yield g, _seeded_matching(rng, n)
    for _ in range(300):
        n = rng.randrange(7, 15)
        g = random_edge_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.9]))
        for _ in range(2):
            yield g, _seeded_matching(rng, n)


def test_forced_edges_keep_the_bridge_inequality():
    # The bridge's one test is κ(G + L) >= |L| + α(G + L) for the forced
    # matching L.  Adding L never lowers κ (n - 1 on a complete graph) and
    # never raises α, so each case's counting facts on G imply it: case 1's
    # |L|, α(G) <= b and κ(G) >= 2b, and case 2's α(G + L) <= b and
    # κ(G) >= |L| + b.  The facts compare integers with b and 2b, so their
    # truth changes only at half-integers b = h/2, and past n no κ <= n - 1
    # meets them; below, every fact is doubled to stay in integers.
    implied = Counter()
    for g, matching in _graphs_with_matchings():
        kappa, alpha = connectivity(g)[0], independence(g)[0]
        forced = g.add_edges(matching)
        kappa_l, alpha_l = connectivity(forced)[0], independence(forced)[0]
        assert kappa_l >= kappa and alpha_l <= alpha, (g.adj, matching)
        l_size = len(matching)
        holds = kappa_l >= l_size + alpha_l
        for h in range(2 * g.n + 1):
            case1 = 2 * l_size <= h and 2 * alpha <= h and kappa >= h
            case2 = 2 * alpha_l <= h and 2 * kappa >= 2 * l_size + h
            assert holds or not (case1 or case2), (g.adj, matching, h)
            implied["case1"] += case1
            implied["case2"] += case2
    assert min(implied.values()) > 300, implied


def test_connectivity_cutset_is_minimum():
    # kappa against subset enumeration on n <= 8
    rng = random.Random(17)
    graphs = [random_edge_graph(rng, rng.randrange(2, 9), rng.choice([0.4, 0.7]))
              for _ in range(40)]
    graphs += [random_edge_graph(rng, rng.randrange(2, 9), rng.uniform(0.2, 0.95))
               for _ in range(260)]
    for g in graphs:
        kappa, cut = connectivity(g)
        assert kappa == naive_kappa(g.n, {frozenset(e) for e in g.edges()}), g.adj
        if cut is not None:
            assert cut.bit_count() == kappa
            assert len(g.components(cut)) >= 2


def _cut_corpus():
    """Every graph on n <= 6, then seeded random graphs on n 7..24."""
    for n in range(7):
        yield from all_graphs(n)
    rng = random.Random(4242)
    for _ in range(300):
        yield random_edge_graph(rng, rng.randrange(7, 25), rng.uniform(0.2, 0.85))


def test_connectivity_cuts_are_pinned():
    # the case-1 and case-2 cut replays build their witnesses from the exact
    # cut, so the cut itself is pinned, not only its size; the digest was
    # taken from the per-pair max flow over every non-adjacent pair
    h = hashlib.sha256()
    for g in _cut_corpus():
        h.update(f"{connectivity(g)}\n".encode())
    assert h.hexdigest() == (
        "902b0bef20bac178f84b9ce71b3d5660c35e2da0a37d591277e475e56559eb82")


def test_dense_family_cuts_are_pinned():
    # dense graphs with high kappa, where the greedy s-x-y-t paths carry most
    # of each pair's flow; the digests were taken from the flow that started
    # from the common-neighbour paths alone
    for g, kappa, digest in (
            (two_cliques(30, 80, 24, 1), 53,
             "4b0d91d3060df62ef1e4a250f21de99b3dde490af52dbd3844eec0f317c4984d"),
            (two_cliques(23, 277, 2, 1), 24,
             "fb0799ff49cd54a1c254f21d90c3f2024606b915fc22a617317c0e37599b03f8")):
        got = connectivity(g)
        assert got[0] == kappa
        assert hashlib.sha256(f"{got}".encode()).hexdigest() == digest, g.n


def test_connectivity_flows_start_only_below_kappa(monkeypatch):
    # Even's bound: pairs whose smaller vertex is past kappa are never solved;
    # Whitney's: no flow asks for more than delta + 1 paths, and a pair whose
    # common neighbours already reach its limit runs no flow
    from toughham import metrics

    calls = []
    real = metrics._min_vertex_cut_pair
    monkeypatch.setattr(metrics, "_min_vertex_cut_pair",
                        lambda base, s, t, limit: calls.append((s, t, limit))
                        or real(base, s, t, limit))
    assert connectivity(Graph.cycle(12)) == (2, 0b100000000010)
    assert calls and max(s for s, _, _ in calls) <= 2
    assert all(limit <= 3 for _, _, limit in calls)

    # K_{2,2,2} on 0..5 (non-edges 01, 23, 45) and vertex 6 joined to 0 and 2:
    # delta = 2, and the pairs (0, 1) and (2, 3) have four common neighbours
    octahedron = [(u, v) for u, v in combinations(range(6), 2) if u // 2 != v // 2]
    g = Graph.from_edges(7, octahedron + [(0, 6), (2, 6)])
    calls.clear()
    assert connectivity(g) == (2, 0b101)
    assert calls and all(limit <= 3 for _, _, limit in calls)
    assert all((g.adj[s] & g.adj[t]).bit_count() < limit for s, t, limit in calls)


def _pair_corpus():
    """Every graph on n <= 6, then 500 seeded random graphs on n <= 40 with
    p from 0.1 to 0.95, one in ten of them on more than 20 vertices."""
    for n in range(7):
        yield from all_graphs(n)
    rng = random.Random(2626)
    for i in range(500):
        n = rng.randrange(21, 41) if i % 10 == 0 else rng.randrange(2, 21)
        yield random_edge_graph(rng, n, rng.uniform(0.1, 0.95))


def test_pair_flow_matches_reference():
    # the pair flow starts from the common-neighbour paths and the greedy
    # s-x-y-t paths; the reference starts from the zero flow.  The cut
    # nearest to s is the same for every maximum flow, and a limit only
    # says whether the flow reaches it, so the reference runs once per pair
    # without a limit and every limit is read off its cut (Menger: the max
    # flow is the cut's size)
    for g in _pair_corpus():
        kappa = connectivity(g)[0]
        base = metrics._split_residual(g, g.full)
        for s in range(g.n):
            for t in bits(g.full & ~g.adj[s] & ~((2 << s) - 1)):
                cut = reference_pair_cut(g, s, t, g.n + 1)
                for limit in {1, 2, kappa, kappa + 1, g.n + 1}:
                    want = None if cut.bit_count() >= limit else cut
                    got = metrics._min_vertex_cut_pair(base, s, t, limit)
                    assert got == want, (g.adj, s, t, limit)


def test_reference_pair_cut_stops_at_its_limit():
    # the reference's own limit against its unlimited cut
    rng = random.Random(2727)
    for _ in range(60):
        g = random_edge_graph(rng, rng.randrange(2, 13), rng.uniform(0.2, 0.9))
        for s in range(g.n):
            for t in bits(g.full & ~g.adj[s] & ~((2 << s) - 1)):
                cut = reference_pair_cut(g, s, t, g.n + 1)
                assert not any(part >> s & part >> t & 1 for part in g.components(cut))
                for limit in range(g.n + 1):
                    want = None if cut.bit_count() >= limit else cut
                    assert reference_pair_cut(g, s, t, limit) == want, (g.adj, s, t, limit)


def _witness_corpus():
    """Every graph on n <= 5, then seeded random graphs on n 7..14."""
    for n in range(6):
        yield from all_graphs(n)
    rng = random.Random(6161)
    for _ in range(300):
        yield random_edge_graph(rng, rng.randrange(7, 15), rng.uniform(0.1, 0.95))


def test_cutset_witnesses_are_pinned():
    # the witnesses, not only the values: each is the first optimal cutset
    # in (size, lexicographic) order; the digest was taken from the sweep
    # that starts at size 0 and bounds c(G - S) by n - k alone
    grid = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(11)]
    h = hashlib.sha256()
    for g in _witness_corpus():
        h.update(f"{toughness(g)} {scattering(g)}".encode())
        for t in grid:
            h.update(f" {verify_tough(g, t)}".encode())
        h.update(b"\n")
    assert h.hexdigest() == (
        "6355561d0822210781f84c660c93cd9d548e5066e66b64858a03c92ce31081a4")


def test_cutset_sweep_starts_at_kappa(monkeypatch):
    # no set smaller than kappa is a cutset, so none is ever counted, and the
    # sweep's own kappa runs no second multipartite decomposition
    from toughham import metrics

    # the complement of C11: 8-regular, kappa 8, not multipartite
    g = Graph.from_edges(11, [(u, v) for u in range(11) for v in range(u + 2, 11)
                              if (u, v) != (0, 10)])
    sizes, decompositions = [], []
    real_count = Graph.component_count
    monkeypatch.setattr(Graph, "component_count",
                        lambda self, removed=0: sizes.append(removed.bit_count())
                        or real_count(self, removed))
    real_parts = metrics.multipartite_parts
    monkeypatch.setattr(metrics, "multipartite_parts",
                        lambda g, x: decompositions.append(g) or real_parts(g, x))
    assert toughness(g)[0] == 4
    assert sizes and min(sizes) == 8
    assert len(decompositions) == 1
    # the whole sweep, needing only a second component at every size
    sizes.clear()
    swept = [k for k, _ in metrics._cutsets(g, lambda k: 2)]
    assert swept[0] == 8 and sizes and min(sizes) == 8


def _grid_4x5():
    grid = [(5 * i + j, 5 * i + j + 1) for i in range(4) for j in range(4)]
    return Graph.from_edges(20, grid + [(v, v + 5) for v in range(15)])


def _separator_corpus():
    """(graph, largest size compared): every graph on n <= 5, seeded random
    graphs on n 7..14 over five densities, then cycles, paths, a grid and a
    star.  The 4 x 5 grid is compared up to size 7: its 932,409 cutsets of
    all sizes would take seconds of subset counting."""
    for n in range(6):
        for g in all_graphs(n):
            yield g, n
    rng = random.Random(1616)
    for p in (0.15, 0.3, 0.5, 0.7, 0.85):
        for n in range(7, 15):
            yield random_edge_graph(rng, n, p), n
    yield Graph.cycle(12), 12
    yield Graph.path(12), 12
    yield _grid_4x5(), 7
    yield Graph.from_edges(10, [(0, v) for v in range(1, 10)]), 10


def test_cutset_sweep_visits_each_cutset_once():
    # every size's cutsets with their component counts, as a multiset, so
    # each once: against a count of components for every subset of that
    # size; need = 2 keeps every cutset, and an infinite need ends the sweep.
    # A need below 2 is taken as 2, so need = 1 yields no set that leaves
    # one component
    for g, top in _separator_corpus():
        for low in (2, 1) if g.n < 20 else (2,):
            need = lambda k: low if k <= top else INF  # noqa: E731
            swept = {} if g.is_complete() else dict(metrics._cutsets(g, need))
            for k in range(top + 1):
                cuts = swept.get(k, [])
                assert sorted(cuts) == sorted(cutsets_by_brute_force(g, k)), (g.adj, k, low)


def test_sweep_keeps_every_cutset_a_rising_need_asks_for():
    # a branch stops growing A once |base| + |A| + need(k) > n + 1: each
    # step takes at most one vertex off the boundary, and a cutset leaving
    # need(k) components has |A| <= n - k + 1 - need(k).  Under need
    # schedules that rise with k, every cutset that leaves need(k)
    # components or more is still yielded, each once, and nothing else but
    # cutsets; some with fewer components are skipped
    skipped = 0
    for g, top in _separator_corpus():
        if g.is_complete():
            continue
        brute = [cutsets_by_brute_force(g, k) for k in range(top + 1)]
        for schedule in (lambda k: 2 + k // 3, lambda k: 3):
            need = lambda k: schedule(k) if k <= top else INF  # noqa: E731
            swept = dict(metrics._cutsets(g, need))
            for k in range(top + 1):
                cuts = swept.get(k, [])
                assert len(set(cuts)) == len(cuts) and set(cuts) <= set(brute[k]), (g.adj, k)
                wanted = {cut for cut in brute[k] if cut[1] >= schedule(k)}
                assert wanted <= set(cuts), (g.adj, k)
                skipped += len(brute[k]) - len(cuts)
    assert skipped > 0


def test_sweep_bounds_agree_with_brute_force(monkeypatch):
    # toughness, scattering and verify_tough skip the cutsets that cannot
    # beat an incumbent or violate t; values and witnesses must not move.
    # verify_tough is also run with its probe switched off, since on sparse
    # graphs the probe nearly always answers before the sweep
    grid = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(11)]
    rng = random.Random(2222)
    for p in (0.15, 0.3):
        for n in range(7, 15):
            for _ in range(3):
                g = random_edge_graph(rng, n, p)
                # every cutset in (size, lexicographic) order, so min and
                # max return the first optimal one
                cuts = [(Fraction(k, c), c - k, s, c) for k in range(n)
                        for s, c in cutsets_by_brute_force(g, k)]
                tough = min(cuts, key=lambda cut: cut[0])
                scat = max(cuts, key=lambda cut: cut[1])
                assert toughness(g)[0] == tough[0] and scattering(g)[0] == scat[1], g.adj
                if metrics._closed(g, g.full) is None:
                    assert toughness(g)[1].cutset == tough[2], g.adj
                    assert scattering(g)[1].cutset == scat[2], g.adj
                for t in grid:
                    first = next((metrics.ToughnessWitness(s, c)
                                  for ratio, _, s, c in cuts if ratio < t), None)
                    probe = probe_tough(g, t)
                    want = first if probe is None and first is not None else probe
                    assert verify_tough(g, t) == want, (g.adj, t)
                    if metrics._closed(g, g.full) is None:
                        with monkeypatch.context() as patch:
                            patch.setattr(metrics, "probe_tough", lambda g, t: None)
                            assert verify_tough(g, t) == first, (g.adj, t)


def test_grid_toughness_counts_are_pinned(monkeypatch):
    # the 4 x 5 grid (tau = 1 at size 2, alpha = 10): with need(k) the sweep
    # counts components only while a size could still beat the incumbent,
    # and grows no component too large to leave that many; a looser bound
    # shows up here as more counts
    g = _grid_4x5()
    metrics._optima.cache_clear()
    counts = []
    real = Graph.component_count
    monkeypatch.setattr(Graph, "component_count",
                        lambda self, removed=0: counts.append(removed) or real(self, removed))
    assert toughness(g) == (1, metrics.ToughnessWitness(0b100010, 2))
    assert len(counts) == 117292


def test_split_residual_is_bit_spread():
    # the out-row of v holds the in-node 2w of every neighbour w inside x
    def per_bit(g, x):
        res = []
        for v in range(g.n):
            res += [1 << (2 * v + 1), sum(1 << (2 * w) for w in bits(g.adj[v] & x))]
        return res

    rng = random.Random(4040)
    randoms = (random_edge_graph(rng, rng.randrange(1, 41), rng.random()) for _ in range(1000))
    for n in range(7):
        for g in all_graphs(n):
            assert metrics._split_residual(g, g.full) == per_bit(g, g.full)
    for g in randoms:
        x = rng.getrandbits(g.n)
        assert metrics._split_residual(g, g.full) == per_bit(g, g.full), g.adj
        assert metrics._split_residual(g, x) == per_bit(g, x), (g.adj, x)


def masked_graphs(rng):
    """(g, x) with seeded g on at most 16 vertices: a random x, then an x
    inside which g is redrawn complete multipartite (complete when every
    part is one vertex), so that the closed forms answer for G[x]."""
    for _ in range(300):
        n = rng.randrange(2, 17)
        g = random_edge_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.9]))
        inside = rng.sample(range(n), rng.randrange(2, n + 1))
        yield g, mask_of(inside)
        part = {v: rng.randrange(rng.choice([2, 3, len(inside)])) for v in inside}
        yield Graph.from_edges(n, [(u, v) for u, v in g.edges()
                                   if u not in part or v not in part or part[u] != part[v]]
                               + [(u, v) for u, v in combinations(inside, 2)
                                  if part[u] != part[v]]), mask_of(inside)


def test_masked_connectivity_and_independence_are_the_induced_graphs():
    # kappa and alpha of G[x], read inside the mask x in G's own ids, are
    # those of G[x] built as its own graph, with the same cut and set mapped
    # back: x keeps the order of G[x]'s ids, so every choice is the same
    def lift(mask, vmap):
        return mask and mask_of(vmap[i] for i in bits(mask))

    def agree(g, x):
        sub, vmap = induced(g, x)
        kappa, cut = connectivity(sub)
        alpha, aset = independence(sub)
        assert connectivity(g, x) == (kappa, lift(cut, vmap)), (g.adj, x)
        assert independence(g, x) == (alpha, lift(aset, vmap)), (g.adj, x)
        return metrics._closed(sub, sub.full) is not None

    closed = Counter()
    for n in range(6):
        for g in all_graphs(n):
            for x in range(1 << n):
                if x.bit_count() >= 2:
                    closed[agree(g, x)] += 1
    for g, x in masked_graphs(random.Random(35)):
        closed[agree(g, x)] += 1
    assert min(closed.values()) >= 300, closed


def test_independence_witness_is_independent():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 20)
        g = random_edge_graph(rng, n, 0.5)
        alpha, aset = independence(g)
        assert aset.bit_count() == alpha
        for v in bits(aset):
            assert g.adj[v] & aset == 0


def _independence_corpus():
    """Every graph on n <= 6, then seeded random graphs on n 7..40."""
    for n in range(7):
        yield from all_graphs(n)
    rng = random.Random(7373)
    for _ in range(1000):
        yield random_edge_graph(rng, rng.randrange(7, 41), rng.uniform(0.05, 0.95))


def test_independence_sets_are_pinned(monkeypatch):
    # the maximum set, not only alpha: the gate and the bridge turn it into
    # toughness witnesses; a cap hit is recorded with its stage
    def attempt(g, cap):
        monkeypatch.setattr(metrics, "INDEPENDENCE_CAP", cap)
        try:
            return independence.__wrapped__(g)
        except OracleLimitExceeded as exc:
            return f"limit:{exc.stage}"

    h = hashlib.sha256()
    for g in _independence_corpus():
        h.update(f"{attempt(g, 64)} {attempt(g, 3)}\n".encode())
    assert h.hexdigest() == (
        "f4a6f99a7f3b099084aa7e6409917e05f84c5d7c821362e84d7137b807e83988")


def test_caps_raise(monkeypatch):
    g = Graph.cycle(30)
    calls = []
    real = metrics.independence
    monkeypatch.setattr(metrics, "independence", lambda g: calls.append(g) or real(g))
    with pytest.raises(OracleLimitExceeded) as exc:
        toughness(g)
    assert exc.value.stage == "toughness"
    assert calls == []  # the cap is checked before alpha is computed
    # probes still find early violators past the cap
    assert verify_tough(g, Fraction(11)) is not None


def test_verify_tough_decomposes_once(monkeypatch):
    from toughham import metrics

    calls = []
    real = metrics.multipartite_parts
    monkeypatch.setattr(metrics, "multipartite_parts",
                        lambda g, x: calls.append(g) or real(g, x))
    assert verify_tough(Graph.complete_multipartite([3, 3, 3]), Fraction(1)) is None
    assert len(calls) == 1


def test_probe_tough_is_sound():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randrange(2, 10)
        g = random_edge_graph(rng, n, 0.5)
        for t in (Fraction(1), Fraction(2)):
            w = probe_tough(g, t)
            if w is not None:
                assert validate_toughness_witness(g, w, t)


PETERSEN = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _fresh(name, g):
    """repr of ``metrics.<name>(g)`` computed in a new interpreter."""
    code = ("from toughham import metrics; from toughham.graph import Graph; "
            f"print(repr(metrics.{name}(Graph({g.n}, {g.adj!r}))))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return done.stdout.strip()


def test_memos_keep_graphs_and_caps_apart(monkeypatch):
    # each graph's last results are memoized: interleaving two graphs of the
    # same order, in any order, gives the values and witnesses a fresh
    # process gives; a lower subset cap still raises with its own stage, as
    # it is checked before the memo is read, and so does a lower
    # independence cap on the unmemoized solver
    a, b = Graph.cycle(10), PETERSEN
    names = ("toughness", "scattering", "connectivity", "independence")
    fresh = {(name, g): _fresh(name, g) for name in names for g in (a, b)}
    assert fresh["toughness", a] != fresh["toughness", b]
    order = [("scattering", a), ("toughness", a), ("scattering", b), ("toughness", b),
             ("connectivity", a), ("independence", b), ("connectivity", b),
             ("independence", a)] * 2
    for name, g in order:
        assert repr(getattr(metrics, name)(g)) == fresh[name, g], (name, g.adj)
    for solver, name, cap, stage in (
            (toughness, "SUBSET_CAP", 5, "toughness"),
            (scattering, "SUBSET_CAP", 5, "scattering"),
            (independence.__wrapped__, "INDEPENDENCE_CAP", 3, "independence")):
        solver(b)
        with monkeypatch.context() as patch:
            patch.setattr(metrics, name, cap)
            with pytest.raises(OracleLimitExceeded) as exc:
                solver(b)
        assert exc.value.stage == stage


def test_metrics_line_shares_one_sweep(monkeypatch):
    # the four quantities of a metrics line, in its order, run the cutset
    # sweep, kappa's residual and pair flows, alpha's branch and bound and
    # the multipartite decomposition once between them: no more often than
    # toughness alone, so no call spells a memo key of g two ways
    counts = Counter()

    def spy(name, real):
        return lambda *args: counts.update([name]) or real(*args)

    monkeypatch.setattr(metrics, "_min_vertex_cut_pair",
                        spy("flows", metrics._min_vertex_cut_pair))
    monkeypatch.setattr(metrics, "multipartite_parts",
                        spy("decompositions", metrics.multipartite_parts))
    monkeypatch.setattr(Graph, "component_count", spy("counts", Graph.component_count))
    monkeypatch.setattr(metrics, "_mis_branch_bound", spy("alpha", metrics._mis_branch_bound))
    monkeypatch.setattr(metrics, "_split_residual", spy("residual", metrics._split_residual))

    def tally(*solvers):
        counts.clear()
        for solver in solvers:
            solver(g)
        return dict(counts)

    # C11 squared: 4-regular, kappa 4, not complete multipartite, used nowhere else
    g = Graph.from_edges(11, [(v, (v + d) % 11) for v in range(11) for d in (1, 2)])
    line = tally(toughness, connectivity, independence, scattering)
    toughness(Graph.cycle(7))  # a second graph evicts every memo of g
    alone = tally(toughness)
    assert set(alone) == {"flows", "residual", "alpha", "decompositions", "counts"}
    assert line == alone
