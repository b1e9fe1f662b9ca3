import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (all_graphs, blob_with_attachments, case2_instance, induced,
                     plain_record_line, split_violations)
from toughham.certificates import (OracleLimit, RunConfig, Trace, certificate_from_record,
                                   certificate_kind, certificate_to_record,
                                   check_certificate, fmt_q, parse_record, record_line)
from toughham.generators import (GenerationError, case1_synthetic, cobip, complete_split_join,
                                 random_graph, random_in_class, split, two_cliques)
from toughham.graph import Graph, GraphError, bits, mask_of
from toughham.hamilton import CycleCert, PathCert, first_leaf
from toughham.metrics import (ToughnessWitness, connectivity, probe_tough, scattering,
                              threshold, validate_toughness_witness)
from toughham.pipeline import (Decomposition, PathCover, PipelineInternalError,
                               _case1_cut_replay, _case1_edge, _case2_cut_replay,
                               _splice, build_path_cover,
                               case1_decompose, case1_finish, case2_run,
                               expected_cover_size, min_degree_gate, run_theorem)
from toughham.recognition import InducedWitness, holds


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def run_and_check(g, cfg=None):
    cfg = cfg or RunConfig()
    cert, trace = run_theorem(g, cfg)
    ok, reason = check_certificate(g, cert, cfg)
    assert ok or isinstance(cert, OracleLimit), (certificate_kind(cert), reason)
    return cert, trace


def test_run_theorem_acceptance_instance():
    g = complete_split_join(22, 2)
    cert, trace = run_theorem(g)
    assert isinstance(cert, CycleCert)
    assert check_certificate(g, cert, RunConfig())[0]
    assert any("gate" in line and "dirac" in line for line in trace)


def test_run_theorem_petersen():
    g = petersen()
    cert, _ = run_theorem(g)
    # freeness runs first, so the induced-pattern witness wins
    assert isinstance(cert, InducedWitness)
    assert check_certificate(g, cert, RunConfig())[0]


def test_run_theorem_disconnected():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cert, _ = run_theorem(g)
    assert isinstance(cert, ToughnessWitness) and cert.cutset == 0
    assert check_certificate(g, cert, RunConfig())[0]


def test_run_theorem_needs_three_vertices():
    with pytest.raises(GraphError):
        run_theorem(Graph.complete(2))


def test_a_cap_hit_is_salvaged_before_it_is_reported():
    # K3,2 at t = 1 is past an oracle cap of 4: vertex 0 lies in the part of
    # three, so the root passes and the first leaf dead-ends; removing the
    # part of two leaves three components
    g = Graph.complete_multipartite([3, 2])
    cfg = RunConfig(t=Fraction(1), cap_oracle=4)
    cert, trace = run_theorem(g, cfg)
    assert cert == ToughnessWitness(mask_of([3, 4]), 3)
    assert trace[-1] == "salvage ratio=2/3 stage=gate.ham-cycle-forced:cap"
    assert check_certificate(g, cert, cfg)[0]


def _pattern_free_graphs():
    """Every labelled 2p2+p1-free graph on 3 to 5 vertices, then a seeded
    sample on 6 to 8."""
    for n in range(3, 6):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            if not holds(g):
                yield g
    rng = random.Random(14)
    for i in range(60):
        yield random_in_class(rng.randrange(6, 9), rng.choice((0.4, 0.6, 0.8)), seed=1400 + i)


def test_no_oracle_limit_where_the_probe_finds_a_witness():
    # an oracle cap of 4 sends every graph on five or more vertices that
    # reaches an oracle to the cap handler
    graphs = list(_pattern_free_graphs())
    for t in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(11)):
        cfg = RunConfig(t=t, cap_oracle=4)
        for g in graphs:
            cert, _ = run_theorem(g, cfg)
            if isinstance(cert, OracleLimit):
                assert probe_tough(g, t) is None, (g.adj, t, cert)
            else:
                assert check_certificate(g, cert, cfg)[0], (g.adj, t, cert)


def test_gate_fires_oracle_route():
    # min degree 2 exceeds 6/12 - 1 but stays below n/2: oracle route
    g = Graph.cycle(6)
    cert = min_degree_gate(g, RunConfig(), Trace())
    assert isinstance(cert, CycleCert)


def test_gate_low_degree_witness():
    # gate passes through (delta = 1 is under 30/12 - 1) and the derived
    # fact delta >= 2t fails, yielding a neighborhood cutset immediately
    g = Graph.from_edges(30, [(i, (i + 1) % 28) for i in range(28)]
                         + [(0, 28), (14, 29)])
    cfg = RunConfig()
    cert = min_degree_gate(g, cfg, Trace())
    assert isinstance(cert, ToughnessWitness)
    assert check_certificate(g, cert, cfg)[0]


def test_gate_skips_alpha_past_its_cap():
    # a split graph (no 2p2+p1): K70 plus 10 independent vertices with 6
    # seeded clique neighbors each; at 80 vertices the independence number
    # is past its cap, so the gate records the skip and passes through.
    # Case 2's bridge closes its first leaf on the 80-vertex G2*, past the
    # oracle cap, and the cycle goes round all ten stars.
    rng = random.Random(70)
    edges = list(combinations(range(70), 2))
    edges += [(70 + i, c) for i in range(10) for c in rng.sample(range(70), 6)]
    g, cfg = Graph.from_edges(80, edges), RunConfig(t=Fraction(2))
    cert, lines = run_theorem(g, cfg)
    assert "gate-fact alpha=skipped fact=alpha" in lines
    assert lines[-2:] == ["first-leaf l_size=10 stage=case2", "cycle length=80 stage=case2"]
    assert isinstance(cert, CycleCert) and check_certificate(g, cert, cfg)[0]


def test_case1_edge_selection():
    g = case1_synthetic([2, 1, 2], 6, [2] * 8)
    assert _case1_edge(g) == (0, 2)
    # the acceptance join has no qualifying edge: unions are everything
    assert _case1_edge(complete_split_join(22, 2)) is None


def case1_edge_over_all_edges(g):
    """Reference: the union size of every edge, smallest key first."""
    keys = [((g.adj[u] | g.adj[v]).bit_count(), u, v) for u, v in g.edges()]
    best = min((k for k in keys if 12 * k[0] <= 5 * g.n), default=None)
    return None if best is None else best[1:]


def test_case1_edge_matches_the_all_edges_loop():
    rng = random.Random(40)
    found = 0
    for _ in range(400):
        n = rng.randrange(3, 41)
        p = rng.choice([0.05, 0.1, 0.2, 0.3, 0.5])
        g = random_graph(n, p, rng.randrange(1 << 30))
        want = case1_edge_over_all_edges(g)
        assert _case1_edge(g) == want, (n, p)
        found += want is not None
    assert found > 100
    for g in (case1_synthetic([2, 1, 2], 6, [2] * 8), case1_synthetic([6, 6], 10, [10] * 4)):
        assert _case1_edge(g) == case1_edge_over_all_edges(g) is not None


def test_case1_decomposition_invariants():
    g = case1_synthetic([2, 1, 2], 6, [2] * 8)
    uv = _case1_edge(g)
    dec = case1_decompose(g, uv, RunConfig(), Trace())
    assert isinstance(dec, Decomposition)
    assert split_violations(g, uv, dec) == []
    assert uv == (0, 2)
    assert dec.g1_mask == mask_of([0, 1, 2, 3, 4])  # the G1 block
    assert (dec.g2_mask & ~dec.d2_mask).bit_count() == 6
    assert dec.d2_mask.bit_count() == 16
    # the oracle sees a split whose G2 also takes S1
    s = (g.adj[0] | g.adj[2]) & ~mask_of([0, 2])
    assert split_violations(g, uv, dec._replace(g2_mask=s | dec.d2_mask)) == ["G1 and G2 overlap"]


def ends_in_the_scans_witness(g, cfg):
    """run_theorem stops at the forbidden-pattern scan: its witness is the
    certificate, it passes the checker, and no stage ran."""
    cert, trace = run_theorem(g, cfg)
    assert isinstance(cert, InducedWitness)
    assert trace[1:] == ["freeness result=witness -- "
                         + " ".join(map(str, cert.vertices))]
    assert check_certificate(g, cert, cfg)[0]


def test_split_check_failure_into_pattern():
    # D2 split into two pieces: uv, an edge of one piece and a vertex of the
    # other induce the forbidden pattern, so the scan ends the run before
    # any stage
    g = case1_synthetic([2, 1, 2], 6, [2] * 8)
    dec = case1_decompose(g, _case1_edge(g), RunConfig(), Trace())
    d2 = sorted(bits(dec.d2_mask))
    half = mask_of(d2[:8])
    edges = [(u, v) for u, v in g.edges()
             if not (half >> u & 1 and dec.d2_mask >> v & 1 and not half >> v & 1)
             and not (half >> v & 1 and dec.d2_mask >> u & 1 and not half >> u & 1)]
    split = Graph.from_edges(g.n, edges)
    assert len(split.components((split.adj[0] | split.adj[2]) & ~mask_of([0, 2]))) == 3
    ends_in_the_scans_witness(split, RunConfig())


def test_split_check_all_trivial_gives_cutset():
    # u,v plus two cut vertices, everything else pendant on the cut: the
    # punctured union neighborhood shatters the graph into singletons
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    edges += [(2, v) for v in range(4, 12)]
    edges += [(3, v) for v in range(4, 12)]
    g = Graph.from_edges(12, edges)
    cfg = RunConfig()
    assert _case1_edge(g) == (0, 1)
    got = case1_decompose(g, (0, 1), cfg, Trace())
    assert isinstance(got, ToughnessWitness)
    assert got.cutset == mask_of([2, 3])
    assert check_certificate(g, got, cfg)[0]


def _block_structure_instance(star_leaves=13):
    # G1 = {0,1,2,3} carries an induced edge-plus-vertex; D2 is a star whose
    # center is vertex 2's only far neighbor
    bridge = range(4, 10)
    center = 10
    leaves = range(11, 11 + star_leaves)
    n = 11 + star_leaves
    edges = [(0, 1), (0, 2), (1, 3)]
    edges += [(b, x) for b in bridge for x in range(n) if x != b]
    edges = [(u, v) for u, v in edges]
    edges += [(center, leaf) for leaf in leaves]
    edges += [(2, center)]
    return Graph.from_edges(n, list({tuple(sorted(e)) for e in edges}))


def test_block_structure_failure_independent_remainder():
    g = _block_structure_instance()
    cfg = RunConfig()
    got = case1_decompose(g, (0, 1), cfg, Trace())
    assert isinstance(got, ToughnessWitness)
    assert check_certificate(g, got, cfg)[0]


def test_block_structure_failure_pattern_completion():
    # same trick but the far block has an edge in the missed region, which
    # with G1's induced edge-plus-vertex induces the forbidden pattern, so
    # the scan ends the run before any stage
    bridge = range(4, 10)
    far = list(range(10, 24))
    n = 24
    edges = [(0, 1), (0, 2), (1, 3)]
    edges += [(b, x) for b in bridge for x in range(n) if x != b]
    # far block: complete bipartite between two halves
    edges += [(a, b) for a in far[:7] for b in far[7:]]
    g = Graph.from_edges(n, list({tuple(sorted(e)) for e in edges}))
    ends_in_the_scans_witness(g, RunConfig())


COVER_VARIANTS = [
    ("hamiltonian-connected", [2, 1, 2], 6, [2] * 8),
    ("one-extra-star", [3, 1, 1], 6, [2] * 8),
    ("two-extra-stars", [4, 1, 1], 6, [2] * 9),
    ("balanced-small", [2, 2], 6, [2] * 8),
    ("complete-g1", [1, 1], 6, [2] * 8),
]


@pytest.mark.parametrize("label,g1p,s2,d2p", COVER_VARIANTS)
def test_path_cover_variants(label, g1p, s2, d2p):
    g = case1_synthetic(g1p, s2, d2p)
    cfg, trace = RunConfig(cap_oracle=64), Trace()
    dec = case1_decompose(g, _case1_edge(g), cfg, trace)
    assert isinstance(dec, Decomposition)
    cover = build_path_cover(g, dec, cfg, trace)
    assert isinstance(cover, PathCover), label
    g1, _ = induced(g, dec.g1_mask)
    s_value, _ = scattering(g1)
    assert cover.violations(g, dec.g1_mask, dec.g2_mask,
                            expected_cover_size(s_value)) == []
    cert = case1_finish(g, dec, cover, cfg, trace)
    assert isinstance(cert, CycleCert), label
    assert check_certificate(g, cert, cfg)[0]
    assert sorted(cert.order) == list(range(g.n))


@pytest.mark.parametrize("label,g1p,s2,d2p", [
    ("balanced-big-edged", [11, 9, 2], 24, [9] * 7 + [2]),
    ("balanced-big-independent", [11, 11], 24, [9] * 7 + [2]),
])
def test_path_cover_large_balanced(label, g1p, s2, d2p):
    g = case1_synthetic(g1p, s2, d2p)
    cfg, trace = RunConfig(cap_oracle=128), Trace()
    dec = case1_decompose(g, _case1_edge(g), cfg, trace)
    cover = build_path_cover(g, dec, cfg, trace)
    assert isinstance(cover, PathCover), label
    assert len(cover.paths) == 1
    cert = case1_finish(g, dec, cover, cfg, trace)
    assert isinstance(cert, CycleCert)
    assert check_certificate(g, cert, cfg)[0]


def test_case2_split_join_direct():
    g = complete_split_join(22, 2)
    cfg = RunConfig()
    cert = case2_run(g, cfg, Trace())
    assert isinstance(cert, CycleCert)
    assert check_certificate(g, cert, cfg)[0]


def test_case2_splice_single_star():
    g = blob_with_attachments([2] * 12, [[0, 2]])
    cfg = RunConfig(cap_oracle=64)
    cert = case2_run(g, cfg, Trace())
    assert isinstance(cert, CycleCert)
    assert check_certificate(g, cert, cfg)[0]
    assert g.n - 1 in cert.order


def test_splice_puts_each_cover_path_between_its_consecutive_ends():
    # ends 0, 1 in the path's orientation, ends 3, 2 against it
    assert _splice((0, 1, 2, 3), [PathCert((0, 7, 8, 1)), PathCert((3, 9, 2))]) == (
        0, 7, 8, 1, 2, 9, 3)
    # ends across the wrap-around (last, first), in both orientations
    for path in ((6, 10, 11, 4), (4, 11, 10, 6)):
        assert _splice((4, 5, 6), [PathCert(path)]) == (4, 5, 6, 10, 11)
    # ends that are not consecutive, alone or after a path that was spliced
    for cycle, paths in (((0, 1, 2, 3), [PathCert((0, 5, 2))]),
                         ((0, 1, 2, 3, 4), [PathCert((0, 7, 1)), PathCert((2, 9, 4))])):
        with pytest.raises(PipelineInternalError, match="spliced cycle missed a cover path"):
            _splice(cycle, paths)


def test_case2_with_insertion():
    g = blob_with_attachments([2] * 24, [[0, 2, 4], [6, 8, 10, 12, 14, 16]])
    cfg = RunConfig(cap_oracle=64)
    trace = Trace()
    cert = case2_run(g, cfg, trace)
    assert isinstance(cert, CycleCert)
    assert check_certificate(g, cert, cfg)[0]
    assert any(line.startswith("insertion") for line in trace.lines)


def test_case2_low_degree_set_is_independent_when_no_edge_qualifies():
    # case2_run takes S = {x : 24·deg(x) < 5n} as independent: adjacent
    # u, v in S have 12·|N(u) ∪ N(v)| < 5n, so _case1_edge finds an edge
    def low_set_is_independent(g):
        low = mask_of(x for x in range(g.n) if 24 * g.adj[x].bit_count() < 5 * g.n)
        return all(g.adj[x] & low == 0 for x in bits(low)), low.bit_count()

    def seeded():
        rng = random.Random(24)
        for _ in range(300):
            n = rng.randrange(3, 41)
            yield random_graph(n, rng.choice([0.05, 0.2, 0.5, 0.8, 0.95]), rng.randrange(1 << 30))
        for pairs in range(8, 18):
            for low in (2, 3, 4):
                g = case2_instance(pairs, low, 1, rng)
                yield g
                # the same with its two lowest-degree vertices joined
                x, y = sorted(range(g.n), key=lambda v: g.adj[v].bit_count())[:2]
                yield g.add_edges([(x, y)])

    tallies = []
    for graphs in ((g for n in range(7) for g in all_graphs(n)), seeded()):
        case2 = nontrivial = 0
        for g in graphs:
            if _case1_edge(g) is None:
                independent, size = low_set_is_independent(g)
                assert independent, g.adj
                case2 += 1
                nontrivial += size >= 2
        tallies.append((case2, nontrivial))
    # (graphs with no case-1 edge, those with two low-degree vertices or more)
    assert tallies == [(32918, 9552), (211, 52)]


def test_case1_fuzz_soundness():
    rng = random.Random(314)
    cfg = RunConfig()
    outcomes = set()
    for i in range(300):
        n = rng.randrange(10, 19)
        g = random_graph(n, rng.choice([0.15, 0.25, 0.35]), seed=9000 + i)
        pick = _case1_edge(g)
        if pick is None:
            continue
        trace = Trace()
        got = case1_decompose(g, pick, cfg, trace)
        outcomes.add(type(got).__name__)
        if isinstance(got, Decomposition):
            assert split_violations(g, pick, got) == [], i
            cover = build_path_cover(g, got, cfg, trace)
            outcomes.add(type(cover).__name__)
            if isinstance(cover, PathCover):
                cert = case1_finish(g, got, cover, cfg, trace)
                outcomes.add(certificate_kind(cert))
                if not isinstance(cert, OracleLimit):
                    assert check_certificate(g, cert, cfg)[0]
        elif not isinstance(got, OracleLimit):
            assert check_certificate(g, got, cfg)[0]
    assert "Decomposition" in outcomes or "ToughnessWitness" in outcomes


def test_case2_fuzz_soundness():
    rng = random.Random(2718)
    cfg = RunConfig()
    for i in range(150):
        n = rng.randrange(8, 20)
        g = random_graph(n, rng.choice([0.75, 0.85, 0.95]), seed=31000 + i)
        if any(12 * (g.adj[a] | g.adj[b]).bit_count() <= 5 * n for a, b in g.edges()):
            continue
        cert = case2_run(g, cfg, Trace())
        if not isinstance(cert, OracleLimit):
            assert check_certificate(g, cert, cfg)[0]


def test_below_regime_runs_stay_sound():
    cfg = RunConfig(t=Fraction(9, 4))
    rng = random.Random(55)
    kinds = set()
    for i in range(120):
        n = rng.randrange(6, 13)
        g = random_graph(n, 0.5, seed=777 + i)
        if g.n < 3:
            continue
        cert, _ = run_theorem(g, cfg)
        kinds.add(certificate_kind(cert))
        if not isinstance(cert, OracleLimit):
            assert check_certificate(g, cert, cfg)[0]
    assert "hamilton-cycle" in kinds


def _case1_replay_on_the_min_cut(g, t):
    """_case1_cut_replay on the minimum cut of G2, when κ(G2) is below
    2n/(t+1); None otherwise.  Returns the certificate and its trace."""
    cfg = RunConfig(t=t)
    dec = case1_decompose(g, _case1_edge(g), cfg, Trace())
    if not isinstance(dec, Decomposition):
        return None
    kappa2, cut2 = connectivity(g, dec.g2_mask)
    if cut2 is None or kappa2 >= threshold(g.n, t, 2):
        return None
    trace = Trace()
    return _case1_cut_replay(g, dec, cut2, cfg, trace), trace


def _case2_replay_on_the_min_cut(g, t):
    """_case2_cut_replay on the minimum cut of G2 = G - S, when κ(G2) is
    below |S1| + n/(t+1); None otherwise.  S holds the vertices of degree
    under 5n/24, S1 those of degree under n/(t+1)."""
    n = g.n
    s_mask = mask_of(x for x in range(n) if 24 * g.adj[x].bit_count() < 5 * n)
    s1 = mask_of(x for x in bits(s_mask) if (t + 1) * g.adj[x].bit_count() < n)
    kappa2, cut2 = connectivity(g, g.full & ~s_mask)
    if cut2 is None or kappa2 >= s1.bit_count() + threshold(n, t):
        return None
    trace = Trace()
    return _case2_cut_replay(g, s_mask, s1, cut2, RunConfig(t=t), trace), trace


def _cut_replay_inputs():
    """Pattern-free inputs, each with the replay of its case: case1_synthetic
    shapes, the case-2 family of the golden corpora, and random_in_class
    draws.  The three named draws are where a search over seeds 0..2999
    found bare-remainder (1264, 1909) and component-alpha (241)."""
    shapes = [([1, 1], 6, [2] * 8), ([2, 1, 2], 6, [2] * 8), ([3, 1, 1], 6, [2] * 8),
              ([4, 1, 1], 6, [2] * 9), ([2, 2], 6, [2] * 8), ([1, 1], 2, [8, 2]),
              ([1, 1], 2, [5, 1, 1]), ([1, 1], 2, [4, 4]), ([2, 1], 4, [10, 1])]
    for shape in shapes:
        yield _case1_replay_on_the_min_cut, case1_synthetic(*shape)
    rng = random.Random(4)
    for pairs in range(4, 10):
        for low, joins in ((1, 1), (2, 1), (2, 2), (3, 1)):
            yield _case2_replay_on_the_min_cut, case2_instance(pairs, low, joins, rng)
    draws = [(8, 0.5, 1264), (11, 0.3, 1909), (8, 0.4, 241)]
    draws += [(rng.randrange(7, 11), rng.choice((0.3, 0.5)), 2100 + i) for i in range(40)]
    for n, p, seed in draws:
        try:
            g = random_in_class(n, p, seed=seed)
        except GenerationError:
            continue
        yield (_case2_replay_on_the_min_cut if _case1_edge(g) is None
               else _case1_replay_on_the_min_cut), g


def _stage_of(trace):
    """The stage named by the last trace record that names one."""
    return next(parse_record(line)[1]["stage"] for line in reversed(trace.lines)
                if "stage=" in line)


# the endings the cut replays reach on _cut_replay_inputs, by certificate kind
CUT_REPLAY_ENDINGS = {
    ("case1.connectivity.bare-remainder", "toughness-witness"): 2,
    ("case1.connectivity.shattered", "oracle-limit"): 23,
    ("case1.connectivity.shattered", "toughness-witness"): 27,
    ("case2.connectivity.component-alpha", "toughness-witness"): 2,
    ("case2.connectivity.small-component", "oracle-limit"): 7,
    ("case2.connectivity.small-component", "toughness-witness"): 22,
    ("case2.connectivity.trivial", "oracle-limit"): 84,
    ("case2.connectivity.trivial", "toughness-witness"): 94,
}


def test_cut_replays_end_in_a_witness_or_a_named_limit():
    # each replay gets G2's true minimum cut, at each t where κ(G2) is
    # below its case's bound
    endings = Counter()
    for replay, g in _cut_replay_inputs():
        assert not holds(g)
        for t in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3),
                  Fraction(5), Fraction(11)):
            got = replay(g, t)
            if got is None:
                continue
            cert, trace = got
            stage = _stage_of(trace)
            if isinstance(cert, OracleLimit):
                assert cert.stage == stage
            else:
                assert validate_toughness_witness(g, cert, t), (g.adj, t, stage)
            endings[stage, certificate_kind(cert)] += 1
    assert endings == CUT_REPLAY_ENDINGS


# (t, largest n): the certificate kinds and the oracle-limit stages of
# run_theorem over every labelled graph on 3..n vertices
EXHAUSTIVE_TALLIES = {
    (Fraction(1), 6): (
        {"forbidden-witness": 2295, "hamilton-cycle": 10167, "oracle-limit": 470,
         "toughness-witness": 20932},
        {"case2.connectivity.small-component": 330, "case2.connectivity.trivial": 140}),
    (Fraction(11), 6): (
        {"forbidden-witness": 2295, "hamilton-cycle": 10307, "toughness-witness": 21262},
        {}),
    (Fraction(1, 2), 5): (
        {"forbidden-witness": 15, "hamilton-cycle": 229, "oracle-limit": 442,
         "toughness-witness": 410},
        {"case2.connectivity.small-component": 15, "case2.connectivity.trivial": 47,
         "case2.star": 380}),
    (Fraction(3, 2), 5): (
        {"forbidden-witness": 15, "hamilton-cycle": 229, "toughness-witness": 852}, {}),
    (Fraction(2), 5): (
        {"forbidden-witness": 15, "hamilton-cycle": 229, "toughness-witness": 852}, {}),
}

# the same runs' bytes: sha256 over every trace line and cert record, each
# newline-terminated, in enumeration order
EXHAUSTIVE_DIGESTS = {
    (Fraction(1), 6): "a6b36eb26264de87b775b893e0099349a2e3b378552f2b9982cc37a83f9ad558",
    (Fraction(11), 6): "ff2016e9026cb14b9a016ea9c0f7a56b533f0415a40b17c7b89fae8faabca382",
    (Fraction(1, 2), 5): "fc7e3076b5d7a0c84b517c2884cf27bc184c4796de3ef304970741c2ef8af8ec",
    (Fraction(3, 2), 5): "15b2ccec151ad4eed2664cf40c94c73b661286bfe431134e4c5dd8e87ccc2a90",
    (Fraction(2), 5): "271cb803883991dc77b546ea5cbb2291998035ade4ab039355ea40eb73052842",
}

# the cert records alone, so that a change which moves only trace bytes
# shows that every certificate stayed as it was
EXHAUSTIVE_CERT_DIGESTS = {
    (Fraction(1), 6): "2d85d1476ddc9eb5299af26af3ba8ee1342097a06ddb384e18674fc71134bbad",
    (Fraction(11), 6): "2c5b6c90c7cd6b7821de7d0b9e8b482fd45f23535d7661d84f9c0e8314afd0d1",
    (Fraction(1, 2), 5): "48fa2daa68dc11fef36a00fc6c42ca53ffff20d59daeeec460d03f7fee6e977c",
    (Fraction(3, 2), 5): "92893355429f460be39f3117f63b69d096f05260d93e8fa068bb7008e9dc954d",
    (Fraction(2), 5): "0c03d49c220bb1a9f30e6b76f0c67f75d86cc6e3320881ba9d4b69e743fb9fe3",
}


@pytest.mark.parametrize("t, top", EXHAUSTIVE_TALLIES,
                         ids=[f"t={t},n<={top}" for t, top in EXHAUSTIVE_TALLIES])
def test_every_small_graph_ends_in_a_checked_certificate(t, top):
    # every certificate but an oracle-limit passes the checker, and none is
    # an oracle-limit from t = 3/2 up; the tallies pin each outcome's count
    # and the digest every output byte
    cfg = RunConfig(t=t)
    kinds, stages = Counter(), Counter()
    h, h_cert = hashlib.sha256(), hashlib.sha256()
    for n in range(3, top + 1):
        for g in all_graphs(n):
            cert, trace = run_theorem(g, cfg)
            record = certificate_to_record(cert)
            for line in trace + [record]:
                h.update(line.encode("ascii") + b"\n")
            h_cert.update(record.encode("ascii") + b"\n")
            kinds[certificate_kind(cert)] += 1
            if isinstance(cert, OracleLimit):
                stages[cert.stage] += 1
            else:
                ok, reason = check_certificate(g, cert, cfg)
                assert ok, (g.adj, reason)
    assert t < Fraction(3, 2) or not stages
    assert (kinds, stages) == EXHAUSTIVE_TALLIES[t, top]
    assert h_cert.hexdigest() == EXHAUSTIVE_CERT_DIGESTS[t, top]
    assert h.hexdigest() == EXHAUSTIVE_DIGESTS[t, top]


def tough_free_corpus():
    """Graphs that are 11-tough and pattern-free: the theorem's hypothesis."""
    yield complete_split_join(22, 2)
    yield complete_split_join(23, 2)
    yield Graph.complete(23)
    yield Graph.complete(24)
    # complete graph minus a perfect matching: complement is 12 disjoint
    # edges, toughness (24-2)/2 = 11
    yield Graph.complete_multipartite([2] * 12)
    yield Graph.complete_multipartite([1] * 33 + [3])
    yield Graph.complete_multipartite([1] * 24 + [2, 2])


def test_theorem_conformance_on_tough_free_instances():
    from toughham.metrics import verify_tough
    from toughham.recognition import find_induced

    cfg = RunConfig()
    for g in tough_free_corpus():
        assert verify_tough(g, Fraction(11)) is None
        assert find_induced(g) is None
        cert, _ = run_theorem(g, cfg)
        assert isinstance(cert, CycleCert), g
        assert check_certificate(g, cert, cfg)[0]


def test_large_split_join_runs_to_a_checked_cycle():
    # n = 200: the forbidden-pattern scan must be polynomial for this to be
    # quick (an O(n^5) scan spends about 30 s here)
    g = complete_split_join(190, 10)
    cfg = RunConfig(t=Fraction(11))
    cert, _ = run_theorem(g, cfg)
    assert isinstance(cert, CycleCert)
    assert check_certificate(g, cert, cfg)[0]


def test_large_family_rows_end_in_checked_cycles():
    # large pattern-free family members (n = 57-300) that the first leaf
    # closes past the 32-vertex oracle cap: the gate's walk, and the
    # bridge's on G2* (K277 plus one forced edge in case 1, K290 plus ten in
    # case 2)
    rows = [(two_cliques(23, 277, 2, seed=1), 11), (split(290, 10, 24, seed=1), 11),
            (two_cliques(30, 80, 24, seed=1), 11)]
    rows += [(case1_synthetic(*shape), 2) for shape in (
        ([6, 6], 10, [10] * 4), ([2, 1, 2], 6, [2] * 8 + [10] * 3),
        ([8, 8], 20, [15] * 8), ([9, 9], 24, [20] * 7))]
    for g, t in rows:
        cfg = RunConfig(t=Fraction(t))
        cert, trace = run_theorem(g, cfg)
        assert isinstance(cert, CycleCert), (g.n, t, trace[-1])
        assert check_certificate(g, cert, cfg)[0]


def test_large_gate_rows_end_in_the_closures_checked_cycle():
    # family members (n = 200-400) whose gate walk dead-ends past the cap,
    # where the exponential search would start: the complete n-closure
    # builds the gate's cycle instead
    for g in (two_cliques(60, 200, 40, seed=1), cobip(80, 120, 0.05, seed=1),
              cobip(120, 150, 0.1, seed=1), two_cliques(100, 300, 50, seed=1)):
        assert first_leaf(g) is None
        cfg = RunConfig()
        cert, trace = run_theorem(g, cfg)
        assert isinstance(cert, CycleCert), (g.n, trace[-1])
        assert trace[-1].startswith("gate ") and "result=cycle" in trace[-1]
        assert check_certificate(g, cert, cfg)[0]


def test_check_certificate_rejects_bad_cycle():
    c5 = Graph.cycle(5)
    ok, _ = check_certificate(c5, CycleCert((0, 1, 2, 3, 4)), RunConfig())
    assert ok
    ok, reason = check_certificate(c5, CycleCert((0, 2, 4, 1, 3)), RunConfig())
    assert not ok and "0-2" in reason
    # ids outside 0..n-1 are a failed check, not an error
    for bad in (CycleCert((0, 1, 2, 3, 9)), InducedWitness((0, 1, 2, 3, 9), "2p2+p1")):
        ok, reason = check_certificate(c5, bad, RunConfig())
        assert not ok, reason


def test_check_certificate_names_a_missing_closing_edge_and_a_repeat():
    p5 = Graph.path(5)
    assert check_certificate(p5, CycleCert((0, 1, 2, 3, 4)), RunConfig()) == (
        False, "edge 4-0 missing from the graph")
    c5 = Graph.cycle(5)
    for order in ((0, 1, 2, 3, 3), (0, 1, 2, 3, 4, 0)):
        assert check_certificate(c5, CycleCert(order), RunConfig()) == (
            False, "cycle is not a permutation of 0..4")


def test_check_certificate_toughness_and_limit():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    cfg = RunConfig()
    assert check_certificate(g, ToughnessWitness(0, 2), cfg)[0]
    assert not check_certificate(g, ToughnessWitness(0, 3), cfg)[0]
    assert not check_certificate(g, OracleLimit("anywhere"), cfg)[0]
    wrong = ToughnessWitness(mask_of([0, 1, 2]), 1)
    assert not check_certificate(g, wrong, cfg)[0]


def test_certificate_record_round_trip():
    certs = [
        CycleCert((0, 1, 2, 3)),
        ToughnessWitness(mask_of([1, 4]), 3),
        InducedWitness((0, 1, 2, 3, 4), "2p2+p1"),
        OracleLimit("case2.insert"),
    ]
    for cert in certs:
        back = certificate_from_record(certificate_to_record(cert))
        # a NamedTuple equals any tuple with its fields: pin the type as well
        assert back == cert and type(back) is type(cert)
    name, fields, ids = parse_record("probe kappa_g2=5 need=4/1 -- 0 2 7")
    assert name == "probe" and fields["need"] == "4/1" and ids == (0, 2, 7)


def test_only_the_exact_certificate_types_are_certificates():
    """A PathCert equals the CycleCert with its order, yet only the exact
    certificate types are certificates, to the kind lookup and the checker."""
    c5, order = Graph.cycle(5), (0, 1, 2, 3, 4)
    assert PathCert(order) == CycleCert(order)
    assert check_certificate(c5, CycleCert(order), RunConfig())[0]
    with pytest.raises(TypeError, match="not a certificate"):
        certificate_kind(PathCert(order))
    ok, reason = check_certificate(c5, PathCert(order), RunConfig())
    assert not ok and reason.startswith("unknown certificate")


def test_record_line_formats_each_type_as_the_plain_formatter():
    values = [0, -3, 12, True, False, Fraction(4), Fraction(0), Fraction(-3, 2),
              Fraction(2, 3), "free", "case2.connectivity.trivial", "", None]
    fields = [(f"f{i}", value) for i, value in enumerate(values)]
    for ids in (None, (), (4, 0, 17), [2, 1]):
        assert record_line("probe", fields, ids) == plain_record_line("probe", fields, ids)
    line = record_line("probe", fields, (v for v in (3, 1)))
    assert line == plain_record_line("probe", fields, (3, 1))
    assert line.endswith(" f3=true f4=false f5=4/1 f6=0/1 f7=-3/2 f8=2/3 f9=free"
                         " f10=case2.connectivity.trivial f11= f12=None -- 3 1")
    # a bool never prints as the int it also is
    assert record_line("gate", [("fired", True), ("regime", False)]) == (
        "gate fired=true regime=false")
    assert [fmt_q(x) for x in (Fraction(3, 6), Fraction(-4), 2, 0)] == ["1/2", "-4/1", "2/1",
                                                                        "0/1"]


def test_trace_writes_its_fields_in_sorted_order():
    trace = Trace()
    fields = dict(threshold=Fraction(5, 2), method="dirac", fired=True, delta=3)
    trace.add("gate", ids=(2, 0), **fields)
    assert trace.lines == [plain_record_line("gate", sorted(fields.items()), (2, 0))] == [
        "gate delta=3 fired=true method=dirac threshold=5/2 -- 2 0"]


def test_record_line_rejects_any_whitespace_in_a_value():
    # parse_record splits on any whitespace, so such a value could not be read back
    for text in ("a b", "a\tb", "a\nb", "end\n", "\x0bx", "a\u00a0b"):
        with pytest.raises(ValueError, match="record field stage contains whitespace"):
            record_line("inconclusive", [("stage", text)])
        with pytest.raises(ValueError):
            plain_record_line("inconclusive", [("stage", text)])


def test_trace_mentions_thresholds_as_rationals():
    g = complete_split_join(22, 2)
    _, trace = run_theorem(g, RunConfig())
    assert any("threshold=1/1" in line for line in trace)
    assert any("t=11/1" in line for line in trace)
