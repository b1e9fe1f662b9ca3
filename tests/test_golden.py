"""Golden bytes: the trace and certificate records of a fixed corpus.

Each group of inputs is run and every trace line and ``cert`` record it
produces is hashed with sha256.  The digests were taken before the engine
was restructured, so any change in output bytes, in any stage, shows up
here and has to be made on purpose (by updating the digest in the same
change that explains it).
"""

import functools
import hashlib
import itertools
import random
import sys
from fractions import Fraction

import pytest

from oracles import blob_with_attachments, case2_instance, split_violations
from toughham import pipeline
from toughham.certificates import RunConfig, Trace, certificate_to_record
from toughham.generators import (GenerationError, case1_synthetic, complete_split_join,
                                 random_graph, random_in_class)
from toughham.graph import Graph
from toughham.metrics import INF, scattering
from toughham.pipeline import (Decomposition, PathCover, _case1_edge, build_path_cover,
                               case1_decompose, case1_finish, case2_run, run_theorem)
from toughham.recognition import Multipartition, holds


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
    yield from _theorem([(case2_instance(6, 2, 2, rng), bridge),
                         (case2_instance(9, 2, 2, rng), bridge)])


def corpus_caps():
    """Cap hits under a lowered oracle cap, in the gate and in both cases,
    each salvaged by run_theorem into a witness or an oracle limit."""
    rng = random.Random(6)
    small = RunConfig(t=Fraction(3, 2), cap_oracle=16)
    yield from _theorem([(case2_instance(9, 2, 2, rng), small),
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
    regime, and random graphs through the whole run.  The case-1 draws end
    in witnesses of the split check and of the path cover (anchors, star),
    the case-2 draws in one salvage or at a bridge that holds, and the
    whole runs at the scan or the gate.  So the corpus pins those
    witnesses, the salvage probe and the case-2 oracle route, but reaches
    no case-1 bridge and no failed bridge.  The bridge replays are pinned by
    ``test_bridge_computes_the_facts_of_g2_only_in_a_replay`` below, by
    ``test_cut_replays_end_in_a_witness_or_a_named_limit`` and by
    ``EXHAUSTIVE_DIGESTS`` (case 2 only) in ``test_pipeline.py``.  The
    stages get only pattern-free graphs, as in a run, where the scan comes
    first."""
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
    "caps": "c9e6d18e5612c817524ee1ed66899be53340873bdf072db816b10b514f10edc7",
    "case1-cover": "5aaeddce44f6d344bd8c65ad3f91e573590f21c029363f3d03eb3f75f12c508d",
    "case2": "49f5344cb36a18fc7d6e8cb380ecf30a0fac2725dc935b70fd39ddd23e1cfdbc",
    "gate": "abcca8a681ab8d6565ac7087e979626f24221cec3ebb18b7c894b3941fc39c5a",
    "replays": "7641ff63c6f8b11b965f89af986fdebf96c73e51eacfcb7c3d9c42f2109bf2b0",
}

# the cert records alone, so that a change which moves only trace bytes
# shows that every certificate stayed as it was
GOLDEN_CERTS = {
    "caps": "ac337db8a70432e0a1361e7b878d108af505a788af5672337464cf091a77f3a9",
    "case1-cover": "49ac4add8ea62db3f5851ffb38f98a4daa5ba43696b1b715ac9efecfd7929745",
    "case2": "15294672dbd9ff8be3bfa591e5a7feaaca8f3948595fd50fb853d06220f37f3b",
    "gate": "f126b28fe8ac322c064d9b06f01cdd2ed083f996dbd0442fd5048cc13b92339a",
    "replays": "78b19d14264a9b9dab874ba0c0ab0bc942883aa57b6e12c5b5c6629c5eef1da2",
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


@functools.cache
def output(name) -> tuple[str, ...]:
    """A corpus's lines, run once for both of its digests."""
    return tuple(CORPORA[name]())


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_golden_bytes(name):
    assert digest(output(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_golden_certificates(name):
    assert digest(line for line in output(name) if line.startswith("cert ")) == GOLDEN_CERTS[name]


def test_bridge_computes_the_facts_of_g2_only_in_a_replay(monkeypatch):
    # each _bridge computes κ and α once, both on G2* (G2 plus the forced
    # edges), and decides by them alone; only a failed test's replay
    # computes G2's own facts.  The case-1 and case-2 corpora hold at every
    # bridge; the t = 1 inputs after them fail some, in both cases.
    real_bridge = pipeline._bridge
    bridges = []
    calls = None  # the list the spies append to: a bridge's test, or its replay's

    def spy(name):
        solver = getattr(pipeline, name)

        def wrapped(g, *args, **kwargs):
            if calls is not None:
                calls.append((name, g))
            return solver(g, *args, **kwargs)
        return wrapped

    def bridge(g, g2_mask, paths, cfg, trace, case, replay):
        nonlocal calls
        g2star, _ = g.add_edges([p.ends for p in paths]).induced(g2_mask)
        seen = {"g2": g.induced(g2_mask)[0], "g2star": g2star, "test": [], "replay": []}
        bridges.append(seen)

        def replay_spy(*args):
            nonlocal calls
            calls = seen["replay"]
            try:
                return replay(*args)
            finally:
                calls = seen["test"]
        calls = seen["test"]
        try:
            return real_bridge(g, g2_mask, paths, cfg, trace, case, replay_spy)
        finally:
            calls = None

    for name in ("connectivity", "independence", "ham_cycle_forced"):
        monkeypatch.setattr(pipeline, name, spy(name))
    monkeypatch.setattr(pipeline, "_bridge", bridge)
    t1 = RunConfig(t=1)
    for lines in (corpus_case1_cover(), corpus_case2(),
                  _case1_stages([case1_synthetic([1, 1], 2, [8, 2]),
                                 case1_synthetic([1, 1], 2, [5, 1, 1])], t1),
                  _theorem((random_in_class(9, 0.5, seed=i), t1) for i in range(40))):
        for _ in lines:
            pass
    held = failed = 0
    for seen in bridges:
        facts = [("independence", seen["g2star"]), ("connectivity", seen["g2star"])]
        assert seen["test"][:2] == facts
        if seen["test"][2:] == [("ham_cycle_forced", seen["g2star"])]:
            held += 1
            assert seen["replay"] == []
        else:
            failed += 1
            assert seen["test"] == facts and seen["replay"]
            assert all(g == seen["g2"] for _, g in seen["replay"])
    assert (held, failed) == (25, 15)


def test_case_stages_read_g1_in_gs_own_ids(monkeypatch):
    # every corpus, rerun under two spies with its bytes unchanged: the
    # cover plan's s(G1), read off G1's parts, is the scattering number of
    # G1 built as its own graph, and no stage but _bridge builds one
    decompositions, callers = [], set()
    real_decompose, real_induced = pipeline.multipartite_decompose, Graph.induced

    def decompose(g, x):
        got = real_decompose(g, x)
        if isinstance(got, Multipartition):
            decompositions.append((g, x))
        return got

    def induced(g, s):
        caller = sys._getframe(1)
        if caller.f_globals["__name__"].startswith("toughham"):
            callers.add(caller.f_code.co_name)
        return real_induced(g, s)

    monkeypatch.setattr(pipeline, "multipartite_decompose", decompose)
    monkeypatch.setattr(Graph, "induced", induced)
    plans = []
    for name in sorted(CORPORA):
        lines = tuple(CORPORA[name]())
        assert digest(lines) == GOLDEN[name]
        plans += [line for line in lines if line.startswith("cover-plan ")]
    assert callers == {"_bridge"}
    assert len(plans) == len(decompositions) == 13
    for (g, g1_mask), plan in zip(decompositions, plans):
        s_value, _ = scattering(real_induced(g, g1_mask)[0])
        s_text = "inf" if s_value == INF else s_value
        assert plan == f"cover-plan g1_size={g1_mask.bit_count()} s={s_text}"
