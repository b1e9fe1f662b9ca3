"""Acceptance criteria, one test per criterion.

Each test prints a single CRITERION line on success so a -s run reads as a
checklist.  Corpus sizes and tolerances are pinned here, not configurable.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations

from oracles import (brute_b_matching, induced, naive_components, split_violations,
                     validate_star_matching)
from toughham.certificates import RunConfig, Trace, certificate_kind, check_certificate
from toughham.cli import main as cli_main
from toughham.generators import case1_synthetic, complete_split_join, random_graph
from toughham.graph import Graph, bits, mask_of
from toughham.hamilton import CycleCert, dirac_cycle, ham_cycle_forced, validate_cycle
from toughham.matchings import StarMatching, _stars
from toughham.metrics import (INF, connectivity, independence, scattering, toughness,
                              validate_toughness_witness, verify_tough)
from toughham.pipeline import (Decomposition, PathCover, _case1_edge, build_path_cover,
                               case1_decompose, case1_finish, case2_run,
                               expected_cover_size, run_theorem)
from toughham.recognition import find_induced


def announce(num, text):
    print(f"\nCRITERION {num}: PASS  {text}")


def test_criterion_1_end_to_end_theorem_run():
    started = time.time()
    g = complete_split_join(22, 2)
    assert g.n == 24
    # exact toughness check leans on the multipartite pruning
    assert verify_tough(g, Fraction(11)) is None
    tau, _ = toughness(g)
    assert tau == Fraction(11)
    assert find_induced(g) is None
    cfg = RunConfig()
    cert, trace = run_theorem(g, cfg)
    assert isinstance(cert, CycleCert)
    ok, reason = check_certificate(g, cert, cfg)
    assert ok, reason
    elapsed = time.time() - started
    assert elapsed < 60
    announce(1, f"n=24 join instance certified Hamiltonian in {elapsed:.2f}s")


def test_criterion_2_soundness_sweep():
    started = time.time()
    cfg = RunConfig()
    kinds = {}
    for i in range(1000):
        rng = random.Random(20_000 + i)
        n = rng.randrange(3, 17)
        p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.85])
        g = random_graph(n, p, seed=50_000 + i)
        cert, _ = run_theorem(g, cfg)
        kind = certificate_kind(cert)
        kinds[kind] = kinds.get(kind, 0) + 1
        ok, reason = check_certificate(g, cert, cfg)
        assert ok, (i, n, p, kind, reason)
    elapsed = time.time() - started
    assert elapsed < 300
    assert kinds.get("oracle-limit", 0) == 0
    announce(2, f"1000/1000 certificates checked in {elapsed:.1f}s ({kinds})")


def test_criterion_3_metrics_oracle_equivalence():
    checked = 0
    for i in range(520):
        rng = random.Random(777 + i)
        n = rng.randrange(1, 9)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]), seed=9_000 + i)
        edge_set = {frozenset(e) for e in g.edges()}
        tough = scat = None
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
        kappa = next((k for k in range(n)
                      if any(naive_components(n, edge_set, set(c)) >= 2
                             for c in combinations(range(n), k))), n - 1)
        alpha = max((len(c) for k in range(n + 1)
                     for c in combinations(range(n), k)
                     if all(frozenset(p) not in edge_set
                            for p in combinations(c, 2))), default=0)
        assert toughness(g)[0] == tough, i
        assert scattering(g)[0] == scat, i
        assert connectivity(g)[0] == kappa, i
        assert independence(g)[0] == alpha, i
        checked += 1
    assert checked >= 500
    announce(3, f"{checked} graphs, four metrics each, zero discrepancies")


def test_criterion_4_forced_cycle_property_suite():
    qualifying = 0
    attempts = 0
    while qualifying < 500:
        attempts += 1
        assert attempts < 20_000, "qualifying instances too rare"
        rng = random.Random(123_000 + attempts)
        n = rng.randrange(4, 13)
        g = random_graph(n, rng.choice([0.55, 0.7, 0.85]), seed=321_000 + attempts)
        edges = list(g.edges())
        rng.shuffle(edges)
        forced, used = [], 0
        for u, v in edges:
            if used >> u & 1 or used >> v & 1:
                continue
            forced.append((u, v))
            used |= (1 << u) | (1 << v)
            if len(forced) == rng.randrange(0, 3):
                break
        kappa, _ = connectivity(g)
        alpha, _ = independence(g)
        if kappa < len(forced) + alpha:
            continue
        got = ham_cycle_forced(g, forced)
        assert got is not None, (n, forced)
        assert validate_cycle(g, got)
        es = {frozenset((got.order[i], got.order[(i + 1) % n])) for i in range(n)}
        assert all(frozenset(e) in es for e in forced)
        qualifying += 1
    announce(4, f"500 qualifying (graph, forced-edge) instances, zero infeasible")


def random_cograph(rng, n):
    if n == 1:
        return Graph.complete(1)
    k = rng.randrange(1, n)
    left = random_cograph(rng, k)
    right = random_cograph(rng, n - k)
    edges = list(left.edges())
    edges += [(u + left.n, v + left.n) for u, v in right.edges()]
    if rng.random() < 0.5:
        edges += [(u, v) for u in range(left.n)
                  for v in range(left.n, left.n + right.n)]
    return Graph.from_edges(n, edges)


def has_induced_p4(g):
    """Brute force: four vertices in some order induce the path a-b-c-d."""
    return any(g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
               and not (g.has_edge(a, c) or g.has_edge(b, d) or g.has_edge(a, d))
               for a, b, c, d in permutations(range(g.n), 4))


def brute_ham_path_between(g, x, y):
    n = g.n
    if n == 1:
        return True
    middle = [v for v in range(n) if v not in (x, y)]
    adj = g.adj

    def rec(at, left):
        if not left:
            return bool(adj[at] >> y & 1)
        for i, v in enumerate(left):
            if adj[at] >> v & 1 and rec(v, left[:i] + left[i + 1:]):
                return True
        return False

    return rec(x, middle)


def brute_ham_connected(g):
    return all(brute_ham_path_between(g, x, y)
               for x in range(g.n) for y in range(x + 1, g.n))


def test_criterion_5_scattering_vs_hamiltonian_connectivity():
    # the scattering characterization concerns noncomplete graphs (complete
    # graphs carry the infinity convention), so complete samples are redrawn
    checked = 0
    seed = 0
    agree_neg = agree_pos = 0
    while checked < 300:
        seed += 1
        rng = random.Random(88_000 + seed)
        n = rng.randrange(2, 10)
        g = random_cograph(rng, n)
        if g.is_complete():
            continue
        assert not has_induced_p4(g)  # construction sanity
        s_value, _ = scattering(g)
        connected_enough = brute_ham_connected(g)
        assert connected_enough == (s_value < 0), (seed, n, s_value)
        if s_value < 0:
            agree_neg += 1
        else:
            agree_pos += 1
        checked += 1
    announce(5, f"300 path-free graphs: {agree_neg} connected, {agree_pos} not,"
                f" all matching the scattering sign")


def test_criterion_6_multipartite_structure_suite():
    rng = random.Random(5150)
    for trial in range(300):
        count = rng.randrange(2, 6)
        sizes = [rng.randrange(1, 5) for _ in range(count)]
        while sum(sizes) > 12:
            sizes.pop()
        if len(sizes) < 2:
            sizes = [1, 1]
        g = Graph.complete_multipartite(sizes)
        n = g.n
        if n <= 9:
            cutsets = range(1 << n)
        else:
            cutsets = (rng.getrandbits(n) for _ in range(400))
        for code in cutsets:
            comps = g.components(code)
            if len(comps) < 2:
                continue
            assert all(c.bit_count() == 1 for c in comps), (sizes, code)
            minimal = all(len(g.components(code & ~(1 << v))) < 2
                          for v in bits(code))
            if minimal:
                outside = g.full & ~code
                for v in bits(code):
                    assert g.adj[v] & outside == outside, (sizes, code)
        kappa, _ = connectivity(g)
        alpha, _ = independence(g)
        delta = g.min_degree()
        assert kappa == delta
        assert delta >= n - alpha
    announce(6, "300 multipartite graphs: trivial shatter, joined minimal cutsets,"
                " kappa=delta, delta>=n-alpha")


def test_criterion_7_star_matching_suite():
    from toughham.matchings import k1t_matching
    from toughham.metrics import ToughnessWitness

    feasible_seen = infeasible_seen = 0
    for i in range(300):
        rng = random.Random(31_337 + i)
        nx = rng.randrange(1, 6)
        ny = rng.randrange(1, 13 - nx)
        n = nx + ny
        x_side, y_side = mask_of(range(nx)), mask_of(range(nx, n))
        g = Graph.from_edges(n, [(u, v) for u in range(nx) for v in range(nx, n)
                                 if rng.random() < rng.choice([0.35, 0.6, 0.9])])
        f = {v: rng.randrange(1, 4) for v in bits(x_side)}
        got = _stars(g.adj, y_side, f)
        feasible = brute_b_matching(g, x_side, y_side, f)
        assert isinstance(got, StarMatching) == feasible, i
        if feasible:
            feasible_seen += 1
            assert validate_star_matching(g, got, centers=x_side)
            for center, leaves in got.stars:
                assert len(leaves) == f[center]
        else:
            infeasible_seen += 1
            assert got.subset & ~x_side == 0
            nbhd = g.set_neighborhood(got.subset) & y_side
            assert nbhd.bit_count() == got.neighborhood_size
            assert got.neighborhood_size < sum(f[v] for v in bits(got.subset))
    assert feasible_seen and infeasible_seen
    # converted toughness witnesses validate exactly
    conversions = 0
    for i in range(400):
        rng = random.Random(99_000 + i)
        n = rng.randrange(5, 12)
        g = random_graph(n, rng.choice([0.3, 0.5]), seed=17_000 + i)
        if g.is_complete():
            continue
        centers = 0
        for v in range(n):
            if g.adj[v] & centers == 0:
                centers |= 1 << v
            if centers.bit_count() == 3:
                break
        if centers.bit_count() < 2:
            continue
        t = Fraction(2)
        got = k1t_matching(g, centers)
        if isinstance(got, ToughnessWitness):
            assert validate_toughness_witness(g, got, t)
            conversions += 1
    assert conversions > 30
    announce(7, f"{feasible_seen}+{infeasible_seen} bipartite instances agree with"
                f" brute force; {conversions} cutset conversions validated")


def dirac_instance(seed, n):
    rng = random.Random(seed)
    above = [(((1 << n) - 1) >> (v + 1)) << (v + 1) for v in range(n)]
    rows = [0] * n
    for v in range(n):
        rand = rng.getrandbits(n) | rng.getrandbits(n)  # density ~ 3/4
        rows[v] |= rand & above[v]
    for v in range(n):
        for w in bits(rows[v]):
            rows[w] |= 1 << v
    need = (n + 1) // 2
    for v in range(n):
        w = 0
        while rows[v].bit_count() < need:
            if w != v and not rows[v] >> w & 1:
                rows[v] |= 1 << w
                rows[w] |= 1 << v
            w += 1
    return Graph(n, rows)


def test_criterion_8_dirac_constructor():
    started = time.time()
    rng = random.Random(4242)
    for i in range(1000):
        n = rng.randrange(3, 201)
        g = dirac_instance(60_000 + i, n)
        cert = dirac_cycle(g)  # pure rotation-extension, no search fallback
        assert validate_cycle(g, cert), (i, n)
    elapsed = time.time() - started
    assert elapsed < 30
    announce(8, f"1000 cycles built constructively in {elapsed:.1f}s, zero fallbacks")


CASE1_SHAPES = [
    ([2, 1, 2], 6, [2] * 8),
    ([3, 1, 1], 6, [2] * 8),
    ([4, 1, 1], 6, [2] * 9),
    ([2, 2], 6, [2] * 8),
    ([1, 1], 6, [2] * 8),
    ([3, 2, 1], 8, [2] * 10),
    ([2, 1, 1, 1], 6, [2] * 8),
    ([5, 1, 1, 1], 8, [2] * 12),
    ([3, 3], 8, [2] * 10),
    ([4, 2, 2], 10, [2] * 14),
]


def test_criterion_9_stage_level_suite():
    cfg = RunConfig(cap_oracle=128)
    instances = 0
    for shape_index, (g1p, s2, d2p) in enumerate(CASE1_SHAPES):
        for seed in range(9):
            g = case1_synthetic(g1p, s2, d2p, seed=seed * 31 + shape_index)
            pick = _case1_edge(g)
            assert pick is not None
            trace = Trace()
            dec = case1_decompose(g, pick, cfg, trace)
            assert isinstance(dec, Decomposition), (g1p, seed)
            assert split_violations(g, pick, dec) == []
            cover = build_path_cover(g, dec, cfg, trace)
            assert isinstance(cover, PathCover), (g1p, seed)
            g1, _ = induced(g, dec.g1_mask)
            s_value, _ = scattering(g1)
            assert cover.violations(g, dec.g1_mask, dec.g2_mask,
                                    expected_cover_size(s_value)) == []
            cert = case1_finish(g, dec, cover, cfg, trace)
            assert isinstance(cert, CycleCert), (g1p, seed)
            assert sorted(cert.order) == list(range(g.n))
            assert check_certificate(g, cert, cfg)[0]
            instances += 1
    # the two large balanced shapes complete the sub-case coverage
    for g1p in ([11, 9, 2], [11, 11]):
        for seed in range(5):
            g = case1_synthetic(g1p, 24, [9] * 7 + [2], seed=seed)
            trace = Trace()
            pick = _case1_edge(g)
            dec = case1_decompose(g, pick, cfg, trace)
            assert isinstance(dec, Decomposition)
            assert split_violations(g, pick, dec) == []
            cover = build_path_cover(g, dec, cfg, trace)
            assert isinstance(cover, PathCover)
            cert = case1_finish(g, dec, cover, cfg, trace)
            assert isinstance(cert, CycleCert)
            assert sorted(cert.order) == list(range(g.n))
            instances += 1
    assert instances >= 100
    # case-2 splicing stays permutation-exact as well
    base = Graph.complete_multipartite([2] * 12)
    spliced = Graph.from_edges(26, list(base.edges())
                               + [(24, 0), (24, 2)] + [(25, 4), (25, 6), (25, 8)])
    cert = case2_run(spliced, RunConfig(cap_oracle=64), Trace())
    assert isinstance(cert, CycleCert)
    assert sorted(cert.order) == list(range(26))
    announce(9, f"{instances} case-1 instances with valid covers and exact splices")


def test_criterion_10_survey_reproducibility():
    import io

    args = ["survey", "--t-grid", "9/4,5,8,11", "--gen", "random_in_class",
            "--n", "9", "--count", "200", "--seed", "11"]
    first = io.StringIO()
    assert cli_main(args, out=first) == 0
    second = io.StringIO()
    assert cli_main(args, out=second) == 0
    assert first.getvalue() == second.getvalue()
    assert first.getvalue().count("survey t=") == 4
    announce(10, "two survey runs over 200 graphs and four t values byte-identical")
