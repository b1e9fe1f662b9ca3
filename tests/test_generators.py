import hashlib
import random

import pytest

from toughham import generators, recognition
from oracles import all_graphs
from toughham.generators import (GenerationError, case1_synthetic, cobip, complete_split_join,
                                 random_graph, random_in_class, relabel, split, two_cliques)
from toughham.graph import Graph, bit, mask_of
from toughham.graph6 import write_graph6
from toughham.recognition import find_induced, holds


def test_complete_split_join_shape():
    g = complete_split_join(22, 2)
    assert g.n == 24
    assert g.min_degree() == 22
    assert not g.has_edge(22, 23)


def test_random_is_deterministic():
    a = random_graph(12, 0.5, seed=7)
    b = random_graph(12, 0.5, seed=7)
    c = random_graph(12, 0.5, seed=8)
    assert a == b and a != c


def test_random_in_class_is_pattern_free():
    for seed in range(12):
        g = random_in_class(12, 0.5, seed)
        assert find_induced(g) is None


def test_random_in_class_rejection_cap(monkeypatch):
    # dense big samples essentially always carry the pattern
    monkeypatch.setattr(generators, "REJECTION_CAP", 3)
    with pytest.raises(GenerationError):
        random_in_class(22, 0.5, seed=0)


def sample_digest(monkeypatch):
    """sha256 over the outcome of every (n, p, seed, cap) of a grid whose
    draws are accepted at once, accepted after rejections, or all rejected;
    each cap is set as REJECTION_CAP."""
    h = hashlib.sha256()
    for n in (5, 8, 11, 14, 18):
        for p in (0.2, 0.5, 0.8, 0.9):
            for seed in (0, 1, 2):
                for cap in (1, 4):
                    monkeypatch.setattr(generators, "REJECTION_CAP", cap)
                    try:
                        out = write_graph6(random_in_class(n, p, seed))
                    except GenerationError:
                        out = "GenerationError"
                    h.update(f"{n} {p} {seed} {cap} {out}\n".encode())
    return h.hexdigest()


def test_random_in_class_outcomes_are_pinned(monkeypatch):
    # 120 grid points, 96 rejected draws, 39 GenerationErrors; the digest was
    # taken when rejection still searched for a witness
    assert sample_digest(monkeypatch) == "d6d4c89b3458c0857e55bdac2eb303fbe6b29b768534ebd53573dcf71d569648"


def test_random_in_class_searches_no_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("rejection sampling searched for a witness")

    for owner, attr in ((recognition, "_backtrack"), (recognition, "find_induced"),
                        (generators, "find_induced")):
        monkeypatch.setattr(owner, attr, refuse)
    with monkeypatch.context() as patch, pytest.raises(GenerationError):
        patch.setattr(generators, "REJECTION_CAP", 4)
        random_in_class(14, 0.5, seed=0)
    assert random_in_class(12, 0.5, seed=3).n == 12


def test_case1_synthetic_structure():
    g = case1_synthetic([2, 1, 2], 6, [2] * 8)
    n1, s2 = 5, 6
    union = g.adj[0] | g.adj[2]
    s_mask = union & ~bit(0) & ~bit(2)
    # punctured union neighborhood is the rest of G1 plus the bridge clique
    assert s_mask == (mask_of(range(n1)) | mask_of(range(n1, n1 + s2))) & ~bit(0) & ~bit(2)
    comps = g.components(s_mask)
    assert len(comps) == 2
    assert find_induced(g) is None


def test_case1_synthetic_validation():
    with pytest.raises(GenerationError):
        case1_synthetic([2], 6, [2] * 8)  # u,v need two parts
    with pytest.raises(GenerationError):
        case1_synthetic([2, 1], 1, [2] * 8)
    with pytest.raises(GenerationError):
        case1_synthetic([2, 1], 6, [3])  # disconnected far block
    with pytest.raises(GenerationError):
        case1_synthetic([5, 5], 6, [2, 2])  # union neighborhood too big


def _family_draws():
    """(name, shape, graph): the three dense families over a grid of shapes,
    densities and seeds."""
    for seed in range(4):
        for a, b in ((1, 1), (2, 5), (6, 9), (12, 20), (25, 40)):
            for d in sorted({0, 1, b // 2, b}):
                yield "two_cliques", (a, b, d), two_cliques(a, b, d, seed)
                yield "split", (b, a, d), split(b, a, d, seed)
            for p in (0.0, 0.1, 0.5, 1.0):
                yield "cobip", (a, b, p), cobip(a, b, p, seed)


def test_dense_families_have_their_shape_and_are_pattern_free():
    # two cliques on 0..a-1 and a..a+b-1 (split: a clique on 0..b-1 and an
    # independent set after it); each vertex of K_a (of the independent
    # set) has exactly d neighbours across; every draw is 2p2+p1-free
    for name, shape, g in _family_draws():
        first = shape[0]
        low, high = (1 << first) - 1, g.full & ~((1 << first) - 1)
        assert g.n == shape[0] + shape[1]
        assert all(g.adj[v] & low == low & ~bit(v) for v in range(first)), (name, shape)
        if name == "split":
            assert all(g.adj[v] & high == 0 for v in range(first, g.n)), shape
        else:
            assert all(g.adj[v] & high == high & ~bit(v) for v in range(first, g.n)), shape
        if name != "cobip":
            side = range(first) if name == "two_cliques" else range(first, g.n)
            other = high if name == "two_cliques" else low
            assert all((g.adj[v] & other).bit_count() == shape[2] for v in side), (name, shape)
        assert not holds(g), (name, shape)


def test_dense_families_are_seeded():
    assert two_cliques(6, 9, 4, 1) == two_cliques(6, 9, 4, 1) != two_cliques(6, 9, 4, 2)
    assert split(9, 6, 4, 1) == split(9, 6, 4, 1) != split(9, 6, 4, 2)
    assert cobip(6, 9, 0.5, 1) == cobip(6, 9, 0.5, 1) != cobip(6, 9, 0.5, 2)
    assert cobip(6, 9, 0.0, 1).edge_count() == 15 + 36
    assert cobip(6, 9, 1.0, 1).is_complete()


def test_case1_synthetic_relabeling_seed():
    base = case1_synthetic([2, 1, 2], 6, [2] * 8)
    shuffled = case1_synthetic([2, 1, 2], 6, [2] * 8, seed=5)
    assert base.n == shuffled.n
    assert base.edge_count() == shuffled.edge_count()
    assert base != shuffled
    assert find_induced(shuffled) is None


def generator_outputs_digest():
    """sha256 over random_graph on n 0-20, seeded case1_synthetic shapes and
    relabel under seeded permutations of random graphs on n 0-40."""
    h = hashlib.sha256()
    for n in range(21):
        for p in (0.0, 0.3, 0.5, 0.8, 1.0):
            for seed in (0, 1, 2):
                out = write_graph6(random_graph(n, p, seed))
                h.update(f"random {n} {p} {seed} {out}\n".encode())
    shapes = [([2, 1, 2], 6, [2] * 8), ([1, 1], 3, [2] * 4), ([2, 1], 3, [2] * 5),
              ([6, 6], 10, [10] * 4), ([2, 1], 3, [2] * 9)]
    for shape in shapes:
        for seed in (1, 2, 3, 5):
            out = write_graph6(case1_synthetic(*shape, seed=seed))
            h.update(f"case1 {shape} {seed} {out}\n".encode())
    rng = random.Random(15)
    for n in range(41):
        g = random_graph(n, rng.random(), rng.randrange(1 << 30))
        perm = list(range(n))
        rng.shuffle(perm)
        h.update(f"relabel {n} {write_graph6(relabel(g, perm))}\n".encode())
    return h.hexdigest()


def test_generator_outputs_are_pinned():
    # the digest was taken when the generators still built edge lists
    assert generator_outputs_digest() == (
        "6003d9356e57c06daa31b5e9b659dea5dcc38eab61ab62610dae57090c2b9796")


def relabel_by_edges(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_relabel_matches_edge_list():
    rng = random.Random(16)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [random_graph(n, p, rng.randrange(1 << 30))
               for n in range(41) for p in (0.1, 0.5, 0.9)]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert relabel(g, perm) == relabel_by_edges(g, perm), (g.adj, perm)


def test_relabel_needs_a_permutation():
    g = Graph.path(4)
    for perm in ([0, 1, 2], [0, 1, 2, 2], [1, 2, 3, 4], [0, 1, 2, 3, 4]):
        with pytest.raises(GenerationError):
            relabel(g, perm)
