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

from oracles import blob_with_attachments, case2_instance, induced, split_violations
from toughham import pipeline
from toughham.certificates import RunConfig, Trace, certificate_to_record
from toughham.generators import (GenerationError, case1_synthetic, complete_split_join,
                                 random_graph, random_in_class)
from toughham.graph import Graph
from toughham.metrics import INF, connectivity, independence, scattering
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
    """Inputs past a lowered oracle cap.  The first four end without a cap
    hit: the bridge's first leaf closes in both cases, and the gate's root
    test refuses K7 joined to ten independent vertices.  The next four have
    a passing root and a dead-end first leaf: K9,8's closure stays open, so
    it hits the cap in the gate, and the bridges of the three after it
    close by their closure in both cases.  The last, at t = 1, keeps an open
    closure at its case-2 bridge, where the precondition holds, and hits
    the cap there.  run_theorem salvages each cap hit into a witness or an
    oracle limit.  No case-1 input is known whose bridge keeps an open
    closure where the precondition holds, so none hits the cap in case 1."""
    rng = random.Random(6)
    small = RunConfig(t=Fraction(3, 2), cap_oracle=16)
    yield from _theorem([(case2_instance(9, 2, 2, rng), small),
                         (complete_split_join(7, 10), RunConfig(cap_oracle=16)),
                         (case1_synthetic([2, 1, 2], 6, [2] * 9), small),
                         (case1_synthetic([2, 1], 3, [2] * 9), small),
                         (Graph.complete_multipartite([9, 8]), RunConfig(cap_oracle=16)),
                         (case2_instance(8, 2, 2, random.Random(5)), small),
                         (case1_synthetic([2, 1, 2], 6, [2] * 9, seed=10), small),
                         (case1_synthetic([2, 1], 3, [2] * 9, seed=10), small),
                         (random_in_class(8, 0.3, seed=42), RunConfig(t=1, cap_oracle=4))])


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
    dense = [g for g in dense if not holds(g)]
    for t in (Fraction(1), Fraction(3, 2), Fraction(11)):
        yield from _case2_stage(dense, RunConfig(t=t))
    yield from _theorem([(g, RunConfig(t=Fraction(9, 4)))
                         for g in _random_graphs(60, range(6, 13), (0.5,), 777)])


GOLDEN = {
    "caps": "e3f9b12bb3f9ba1a54b417270fc7371855fb9f487f9da454051373a6148b2f9e",
    "case1-cover": "21b9e57b798ceb20710c8bae1c5250c7e36bb6425856a7e0adb373917a5fdcfa",
    "case2": "7f0c4837fa7adb2f7832e1b2b43399aec83fded4a051fde3f7511d8fceda6932",
    "gate": "9d28424f62debcdc0d44d4673140075a7c668f1a1794270ccafe6e3866922316",
    "replays": "5ef34ca6c4d7d9bb46deb7ff9e318ed02b8da22376b101986adaf011023c444c",
}

# the cert records alone, so that a change which moves only trace bytes
# shows that every certificate stayed as it was
GOLDEN_CERTS = {
    "caps": "c2e5dd3f6ffaa68b57baea277565a79c8b4b0350a5b8f6816a694d8df7281cb7",
    "case1-cover": "49ac4add8ea62db3f5851ffb38f98a4daa5ba43696b1b715ac9efecfd7929745",
    "case2": "01e33fe315c98464e0fadc8f3752de091b0a1aef43d296392b4846d4d70468ee",
    "gate": "4a9ef8ac9c0d527809a0fa1d82f7413784869ae35b8d4ee664235c549772e3d8",
    "replays": "40e194591bbf6b4323e6d786d9fffb2afba05f4da88474943110c3ef623aa407",
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
    # each _bridge builds one graph, G + L (the forced edges L joining the
    # ends of each path), and walks the oracle's first leaf on it inside
    # G2's mask first; a closing leaf is the cycle, with no κ or α computed.
    # A dead end builds the closure of G2* (G + L inside G2's mask) next; a
    # complete one gives the cycle, again with no κ or α.  Only an open
    # closure computes κ and α, both on G2*, and decides by them alone;
    # only a failed test's replay computes G2's own facts, on G inside the
    # same mask.  No step builds another graph.  On every bridge of the
    # case-1 and case-2 corpora the precondition holds, which the test
    # checks itself as no closed cycle pays for it; the t = 1 inputs after
    # them fail some, in both cases, and hold one.
    real_bridge, real_of_rows = pipeline._bridge, Graph._of_rows
    bridges = []
    calls = None  # the list the spies append to: a bridge's test, or its replay's

    def spy(name):
        solver = getattr(pipeline, name)

        def wrapped(g, *args, **kwargs):
            if calls is not None:
                calls.append((name, g, args[-1]))  # the mask comes last
            return solver(g, *args, **kwargs)
        return wrapped

    def of_rows(cls, n, rows):
        built = real_of_rows(n, rows)
        if calls is not None:
            calls.append(("_of_rows", built, None))
        return built

    def bridge(g, g2_mask, paths, cfg, trace, case, replay):
        nonlocal calls
        g_l = g.add_edges([p.ends for p in paths])
        seen = {"g": g, "g_l": g_l, "mask": g2_mask,
                "g2star": induced(g_l, g2_mask)[0], "l_size": len(paths),
                "test": [], "replay": []}
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

    for name in ("connectivity", "independence", "ham_cycle_forced", "first_leaf",
                 "closure_cycle"):
        monkeypatch.setattr(pipeline, name, spy(name))
    monkeypatch.setattr(Graph, "_of_rows", classmethod(of_rows))
    monkeypatch.setattr(pipeline, "_bridge", bridge)
    for lines in (corpus_case1_cover(), corpus_case2()):
        for _ in lines:
            pass
    golden = len(bridges)
    t1 = RunConfig(t=1)
    for lines in (_case1_stages([case1_synthetic([1, 1], 2, [8, 2]),
                                 case1_synthetic([1, 1], 2, [5, 1, 1])], t1),
                  _theorem((random_in_class(9, 0.5, seed=i), t1) for i in range(40)),
                  # an open closure where the precondition holds
                  _theorem([(random_in_class(8, 0.3, seed=42), t1)])):
        for _ in lines:
            pass
    monkeypatch.undo()
    closed = by_closure = held = failed = 0
    for i, seen in enumerate(bridges):
        g_l, mask = seen["g_l"], seen["mask"]
        if i < golden:
            alpha, _ = independence(seen["g2star"])
            kappa, _ = connectivity(seen["g2star"])
            assert kappa >= seen["l_size"] + alpha
        walk = [("_of_rows", g_l, None), ("first_leaf", g_l, mask)]
        closure = walk + [("closure_cycle", g_l, mask)]
        if seen["test"] in (walk, closure):
            closed += 1
            by_closure += seen["test"] == closure
            assert seen["replay"] == []
            continue
        # an open closure: G + L, the walk and the closure, then the facts
        # of G2*
        facts = closure + [("independence", g_l, mask), ("connectivity", g_l, mask)]
        assert seen["test"][:5] == facts
        if seen["test"][5:] == [("ham_cycle_forced", g_l, mask)]:
            held += 1
            assert seen["replay"] == []
        else:
            failed += 1
            assert seen["test"] == facts and seen["replay"]
            assert all(name in ("independence", "connectivity") and (h, x) == (seen["g"], mask)
                       for name, h, x in seen["replay"])
    assert (golden, closed, held, failed) == (12, 37, 1, 3) and by_closure == 13


def test_case_stages_read_g1_in_gs_own_ids(monkeypatch):
    # every corpus, rerun under two spies with its bytes unchanged: the
    # cover plan's s(G1), read off G1's parts, is the scattering number of
    # G1 built as its own graph, and no stage builds an induced graph: the
    # one graph a stage builds is _bridge's G + L, on all of G's vertices
    decompositions, builds = [], set()
    real_decompose, real_of_rows, real_init = (pipeline.multipartite_decompose, Graph._of_rows,
                                               Graph.__init__)

    def decompose(g, x):
        got = real_decompose(g, x)
        if isinstance(got, Multipartition):
            decompositions.append((g, x))
        return got

    def stage_of(n):
        """(stage, whether the graph built has all of its G's n vertices)
        for the innermost pipeline frame building it, if any."""
        frame = sys._getframe(2)
        while frame is not None and frame.f_globals["__name__"] != "toughham.pipeline":
            frame = frame.f_back
        if frame is not None:
            builds.add((frame.f_code.co_name, n == frame.f_locals["g"].n))

    def of_rows(cls, n, rows):
        stage_of(n)
        return real_of_rows(n, rows)

    def init(self, n, adj):
        stage_of(n)
        real_init(self, n, adj)

    monkeypatch.setattr(pipeline, "multipartite_decompose", decompose)
    monkeypatch.setattr(Graph, "_of_rows", classmethod(of_rows))
    monkeypatch.setattr(Graph, "__init__", init)
    plans = []
    for name in sorted(CORPORA):
        lines = tuple(CORPORA[name]())
        assert digest(lines) == GOLDEN[name]
        plans += [line for line in lines if line.startswith("cover-plan ")]
    monkeypatch.undo()
    assert builds == {("_bridge", True)}
    assert len(plans) == len(decompositions) == 15
    for (g, g1_mask), plan in zip(decompositions, plans):
        s_value, _ = scattering(induced(g, g1_mask)[0])
        s_text = "inf" if s_value == INF else s_value
        assert plan == f"cover-plan g1_size={g1_mask.bit_count()} s={s_text}"
