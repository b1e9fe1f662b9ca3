"""Golden bytes: the trace and certificate records of a fixed corpus.

Each group of inputs is run and every trace line and ``cert`` record it
produces is hashed with sha256.  The digests were taken before the engine
was restructured, so any change in output bytes, in any stage, shows up
here and has to be made on purpose (by updating the digest in the same
change that explains it).
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from oracles import blob_with_attachments, split_violations
from toughham.certificates import RunConfig, Trace, certificate_to_record
from toughham.generators import (GenerationError, case1_synthetic, complete_split_join,
                                 random_graph, random_in_class)
from toughham.graph import Graph
from toughham.pipeline import (Decomposition, PathCover, _case1_edge, build_path_cover,
                               case1_decompose, case1_finish, case2_run, run_theorem)
from toughham.recognition import holds


def _case2_instance(pairs, low, joins, rng):
    """complete_multipartite([2] * pairs) plus low independent vertices,
    each joined to whole parts, then relabelled."""
    base = Graph.complete_multipartite([2] * pairs)
    chosen = rng.sample(range(pairs), low * joins)
    edges = list(base.edges())
    for i in range(low):
        x = 2 * pairs + i
        for part in chosen[i * joins:(i + 1) * joins]:
            edges += [(2 * part, x), (2 * part + 1, x)]
    perm = list(range(2 * pairs + low))
    rng.shuffle(perm)
    return Graph.from_edges(len(perm), [(perm[u], perm[v]) for u, v in edges])


def _theorem(cases):
    """run_theorem on (graph, config) pairs."""
    for g, cfg in cases:
        cert, trace = run_theorem(g, cfg)
        yield from trace
        yield certificate_to_record(cert)


def _case1_stages(graphs, cfg):
    """The case-1 stages called one by one, sharing one trace per graph."""
    for g in graphs:
        pick = _case1_edge(g)
        if pick is None:
            continue
        trace = Trace()
        dec = got = case1_decompose(g, pick, cfg, trace)
        if isinstance(dec, Decomposition):
            assert split_violations(g, pick, dec) == []
            got = build_path_cover(g, dec, cfg, trace)
            if isinstance(got, PathCover):
                got = case1_finish(g, dec, got, cfg, trace)
        yield from trace.lines
        yield certificate_to_record(got)


def _case2_stage(graphs, cfg):
    for g in graphs:
        trace = Trace()
        cert = case2_run(g, cfg, trace)
        yield from trace.lines
        yield certificate_to_record(cert)


def corpus_gate():
    """Dirac gate, the oracle gate ending in a cycle and in a witness."""
    cfg = RunConfig()
    yield from _theorem([(complete_split_join(22, 2), cfg),
                         (Graph.complete_multipartite([3, 3, 3]), cfg),
                         (Graph.cycle(6), cfg),
                         (Graph.complete_multipartite([3, 4]), cfg),
                         (complete_split_join(6, 8), cfg)])


def corpus_case1_cover():
    """The case-1 cover subcases: complete G1, Hamiltonian-connected,
    scattered (one and two extra stars) and balanced."""
    cfg = RunConfig(cap_oracle=64)
    shapes = [([1, 1], 6, [2] * 8), ([2, 1, 2], 6, [2] * 8), ([3, 1, 1], 6, [2] * 8),
              ([4, 1, 1], 6, [2] * 9), ([2, 2], 6, [2] * 8)]
    yield from _case1_stages([case1_synthetic(*s) for s in shapes], cfg)
    bridge = RunConfig(t=Fraction(3, 2))
    yield from _theorem([(case1_synthetic([1, 1], 3, [2] * 4, seed=5), bridge),
                         (case1_synthetic([2, 1], 3, [2] * 5, seed=8), bridge)])


def corpus_case2():
    """Case 2 with a star matching, with insertion, and through run_theorem."""
    cfg = RunConfig(cap_oracle=64)
    yield from _case2_stage([complete_split_join(22, 2),
                             blob_with_attachments([2] * 12, [[0, 2]]),
                             blob_with_attachments([2] * 24, [[0, 2, 4],
                                                              [6, 8, 10, 12, 14, 16]])],
                            cfg)
    rng = random.Random(4)
    bridge = RunConfig(t=Fraction(3, 2))
    yield from _theorem([(_case2_instance(6, 2, 2, rng), bridge),
                         (_case2_instance(9, 2, 2, rng), bridge)])


def corpus_caps():
    """Cap hits under a lowered oracle cap, in the gate and in both cases,
    each salvaged by run_theorem into a witness or an oracle limit."""
    rng = random.Random(6)
    small = RunConfig(t=Fraction(3, 2), cap_oracle=16)
    yield from _theorem([(_case2_instance(9, 2, 2, rng), small),
                         (complete_split_join(7, 10), RunConfig(cap_oracle=16)),
                         (case1_synthetic([2, 1, 2], 6, [2] * 9), small),
                         (case1_synthetic([2, 1], 3, [2] * 9), small)])


def _random_graphs(count, sizes, densities, seed):
    for i in range(count):
        rng = random.Random(seed + i)
        yield random_graph(rng.choice(sizes), rng.choice(densities), seed=seed + i)


def _in_class_graphs(sizes, densities, seed):
    """Seeded random_in_class draws, skipping the (n, p) draws past its
    rejection cap."""
    for i in itertools.count():
        rng = random.Random(seed + i)
        n, p = rng.choice(sizes), rng.choice(densities)
        try:
            yield random_in_class(n, p, seed=seed + i)
        except GenerationError:
            continue


def corpus_replays():
    """Pattern-free graphs through the case stages, in and below the proven
    regime, and random graphs through the whole run: the witness replays,
    the salvage probes and the inconclusive ends.  The stages get only
    pattern-free graphs, as in a run, where the scan comes first."""
    draws = _in_class_graphs(range(8, 15), (0.2, 0.3, 0.4, 0.5), 7000)
    sparse = list(itertools.islice((g for g in draws if _case1_edge(g) is not None), 100))
    for t in (Fraction(1), Fraction(11)):
        yield from _case1_stages(sparse, RunConfig(t=t))
    dense = [g for g in _random_graphs(160, range(8, 20), (0.6, 0.75, 0.85, 0.95), 5000)
             if _case1_edge(g) is None][:60]
    dense = [g for g in dense if not holds(g, "2p2+p1")]
    for t in (Fraction(1), Fraction(3, 2), Fraction(11)):
        yield from _case2_stage(dense, RunConfig(t=t))
    yield from _theorem([(g, RunConfig(t=Fraction(9, 4)))
                         for g in _random_graphs(60, range(6, 13), (0.5,), 777)])


GOLDEN = {
    "caps": "7b55baa0de0d98809c8e2b4bdf5f4989f9889e328ea83cf2d21df907177c0450",
    "case1-cover": "ec13620b9f9104fc6a5b74c460c2c2d365f1cb36c7c519ed3ea471696ff19fcb",
    "case2": "9d75fa6f45f65cc16f823301cdaee10b41a9e8b3c885e13b8408aa3744104e56",
    "gate": "abcca8a681ab8d6565ac7087e979626f24221cec3ebb18b7c894b3941fc39c5a",
    "replays": "f25e47ec169fab53c664349f22b03e4b2770106a0122f03b9edb2fa3ca98530c",
}

CORPORA = {
    "gate": corpus_gate,
    "case1-cover": corpus_case1_cover,
    "case2": corpus_case2,
    "caps": corpus_caps,
    "replays": corpus_replays,
}


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii") + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_golden_bytes(name):
    assert digest(CORPORA[name]()) == GOLDEN[name]
