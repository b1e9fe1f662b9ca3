import hashlib

import pytest

from toughham import generators, recognition
from toughham.generators import (GenerationError, case1_synthetic, complete_split_join,
                                 generate, random_in_class)
from toughham.graph import Graph, bit, mask_of
from toughham.graph6 import write_graph6
from toughham.recognition import find_induced


def test_complete_split_join_shape():
    g = complete_split_join(22, 2)
    assert g.n == 24
    assert g.min_degree() == 22
    assert not g.has_edge(22, 23)


def test_generate_kinds():
    assert generate("complete", {"n": 5}) == Graph.complete(5)
    g = generate("complete_multipartite", {"parts": [3, 3, 3]})
    assert g.n == 9 and g.min_degree() == 6
    g = generate("complete_split_join", {"clique": 22, "independent": 2})
    assert g == complete_split_join(22, 2)
    with pytest.raises(GenerationError):
        generate("mystery", {})


def test_random_is_deterministic():
    a = generate("random", {"n": 12, "p": 0.5}, seed=7)
    b = generate("random", {"n": 12, "p": 0.5}, seed=7)
    c = generate("random", {"n": 12, "p": 0.5}, seed=8)
    assert a == b and a != c


def test_random_in_class_is_pattern_free():
    for seed in range(12):
        g = generate("random_in_class", {"n": 12, "p": 0.5}, seed=seed)
        assert find_induced(g, "2p2+p1") is None


def test_random_in_class_rejection_cap():
    # dense big samples essentially always carry the pattern
    with pytest.raises(GenerationError):
        random_in_class(22, 0.5, seed=0, cap=3)


def sample_digest():
    """sha256 over the outcome of every (n, p, seed, cap) of a grid whose
    draws are accepted at once, accepted after rejections, or all rejected."""
    h = hashlib.sha256()
    for n in (5, 8, 11, 14, 18):
        for p in (0.2, 0.5, 0.8, 0.9):
            for seed in (0, 1, 2):
                for cap in (1, 4):
                    try:
                        out = write_graph6(random_in_class(n, p, seed, cap=cap))
                    except GenerationError:
                        out = "GenerationError"
                    h.update(f"{n} {p} {seed} {cap} {out}\n".encode())
    return h.hexdigest()


def test_random_in_class_outcomes_are_pinned():
    # 120 grid points, 96 rejected draws, 39 GenerationErrors; the digest was
    # taken when rejection still searched for a witness
    assert sample_digest() == "d6d4c89b3458c0857e55bdac2eb303fbe6b29b768534ebd53573dcf71d569648"


def test_random_in_class_searches_no_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("rejection sampling searched for a witness")

    for owner, attr in ((recognition, "_backtrack"), (recognition, "find_induced"),
                        (generators, "find_induced")):
        monkeypatch.setattr(owner, attr, refuse)
    with pytest.raises(GenerationError):
        random_in_class(14, 0.5, seed=0, cap=4)
    assert generate("random_in_class", {"n": 12, "p": 0.5}, seed=3).n == 12


def test_case1_synthetic_structure():
    g = case1_synthetic([2, 1, 2], 6, [2] * 8)
    n1, s2 = 5, 6
    union = g.adj[0] | g.adj[2]
    s_mask = union & ~bit(0) & ~bit(2)
    # punctured union neighborhood is the rest of G1 plus the bridge clique
    assert s_mask == (mask_of(range(n1)) | mask_of(range(n1, n1 + s2))) & ~bit(0) & ~bit(2)
    comps = g.components(s_mask)
    assert len(comps) == 2
    assert find_induced(g, "2p2+p1") is None


def test_case1_synthetic_validation():
    with pytest.raises(GenerationError):
        case1_synthetic([2], 6, [2] * 8)  # u,v need two parts
    with pytest.raises(GenerationError):
        case1_synthetic([2, 1], 1, [2] * 8)
    with pytest.raises(GenerationError):
        case1_synthetic([2, 1], 6, [3])  # disconnected far block
    with pytest.raises(GenerationError):
        case1_synthetic([5, 5], 6, [2, 2])  # union neighborhood too big


def test_case1_synthetic_relabeling_seed():
    base = case1_synthetic([2, 1, 2], 6, [2] * 8)
    shuffled = case1_synthetic([2, 1, 2], 6, [2] * 8, seed=5)
    assert base.n == shuffled.n
    assert base.edge_count() == shuffled.edge_count()
    assert base != shuffled
    assert find_induced(shuffled, "2p2+p1") is None
