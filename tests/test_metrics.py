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

from oracles import (all_graphs, complete_multipartite_graphs, cutsets_by_brute_force,
                     naive_components, random_edge_graph)
from toughham import metrics
from toughham.graph import Graph, bits
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
        assert metrics._closed(g) is not None
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


def test_connectivity_flows_start_only_below_kappa(monkeypatch):
    # Even's bound: pairs whose smaller vertex is past kappa are never solved
    from toughham import metrics

    starts = []
    real = metrics._min_vertex_cut_pair
    monkeypatch.setattr(metrics, "_min_vertex_cut_pair",
                        lambda base, s, t, limit: starts.append(s) or real(base, s, t, limit))
    assert connectivity(Graph.cycle(12)) == (2, 0b100000000010)
    assert starts and max(starts) <= 2


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
                        lambda g: decompositions.append(g) or real_parts(g))
    assert toughness(g)[0] == 4
    assert sizes and min(sizes) == 8
    assert len(decompositions) == 1


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
    grid = [(5 * i + j, 5 * i + j + 1) for i in range(4) for j in range(4)]
    grid += [(v, v + 5) for v in range(15)]
    yield Graph.cycle(12), 12
    yield Graph.path(12), 12
    yield Graph.from_edges(20, grid), 7
    yield Graph.from_edges(10, [(0, v) for v in range(1, 10)]), 10


def test_cutset_sweep_visits_each_cutset_once():
    # every size's cutsets with their component counts, as a multiset, so
    # each once: against a count of components for every subset of that size
    for g, top in _separator_corpus():
        swept = {} if g.is_complete() else dict(metrics._cutsets(g, lambda k, room: k > top))
        for k in range(top + 1):
            cuts = swept.get(k, [])
            assert sorted(cuts) == sorted(cutsets_by_brute_force(g, k)), (g.adj, k)


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
                        lambda g: calls.append(g) or real(g))
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
    # sweep, kappa's pair flows, the completeness test and the multipartite
    # decomposition once between them: no more often than toughness alone
    counts = Counter()

    def spy(name, real):
        return lambda *args: counts.update([name]) or real(*args)

    monkeypatch.setattr(metrics, "_min_vertex_cut_pair",
                        spy("flows", metrics._min_vertex_cut_pair))
    monkeypatch.setattr(metrics, "multipartite_parts",
                        spy("decompositions", metrics.multipartite_parts))
    monkeypatch.setattr(Graph, "component_count", spy("counts", Graph.component_count))
    monkeypatch.setattr(Graph, "is_complete", spy("complete", Graph.is_complete))

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
    assert set(alone) == {"flows", "complete", "decompositions", "counts"}
    assert line == alone
