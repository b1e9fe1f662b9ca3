"""Seeded corpora for the benchmark workloads.

Every corpus is a list of groups.  A group fixes how its graphs are run
(pipeline ``run`` at one t with given caps, or the ``metrics`` command)
and holds graph6 lines with the parameters each graph was made from.
The seed decides every random draw and relabelling, so one seed always
yields the same lines.  A run builds one corpus per pass, from the pass
seed ``pass_seed(seed, k)`` of its k-th pass, so that every pass runs
graphs of its own; pass 0 is the corpus given to the CLI and traced.
Graph families and counts are fixed per workload, which keeps the work
per pass close across seeds.

All library calls go through the module namespace ``tk`` so that a
traced run sees generator work done during set-up.  Each builder calls
``tick()`` after every graph it generates, so that set-up can be timed
in short pieces (see ``speed.Meter``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# A lowered Hamilton-cycle oracle cap makes cap hits cheap: at the default
# of 32 vertices the forbidden-pattern scan alone takes about 0.3 s.  The
# other caps keep the program's defaults.
SMALL_ORACLE_CAP = 16


def pass_seed(seed: int, k: int) -> int:
    """The seed of pass k (0 <= k < 1000) of a run with the given seed."""
    return seed * 1000 + k


def _no_tick():
    pass


@dataclass
class Group:
    command: str                 # "run" or "metrics"
    t: Fraction | None = None    # run groups only
    cap_oracle: int = 32
    lines: list[str] = field(default_factory=list)
    params: list[dict] = field(default_factory=list)
    tick: object = field(default=_no_tick, repr=False, compare=False)

    def add(self, tk, g, **params):
        self.lines.append(tk.graph6.write_graph6(g))
        self.params.append(dict(params, n=g.n))
        self.tick()

    def config(self) -> dict:
        if self.command == "metrics":
            return {"command": "metrics"}
        return {"command": "run", "t": f"{self.t.numerator}/{self.t.denominator}",
                "cap_oracle": self.cap_oracle}


def _shuffled(tk, g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return tk.generators.relabel(g, perm)


def sweep_small(tk, seed: int, tick=_no_tick) -> list[Group]:
    """Criterion-2 random sweep at t = 11, then the survey usage: the same
    pattern-free samples replayed at four values of t."""
    rng = random.Random(seed)
    sweep = Group("run", Fraction(11), tick=tick)
    for n in range(3, 17):
        for p in (0.15, 0.3, 0.5, 0.7, 0.85):
            for _ in range(8):
                s = rng.getrandbits(32)
                sweep.add(tk, tk.generators.random_graph(n, p, s),
                          family="random", p=p, seed=s)
    samples = []
    for n in range(6, 13):
        for _ in range(9):
            s = rng.getrandbits(32)
            samples.append((tk.generators.random_in_class(n, 0.5, s), s))
            tick()
    groups = [sweep]
    for t in (Fraction(9, 4), Fraction(5), Fraction(8), Fraction(11)):
        survey = Group("run", t, tick=tick)
        for g, s in samples:
            survey.add(tk, g, family="random_in_class", p=0.5, seed=s)
        groups.append(survey)
    return groups


# Each list holds (shape, copies); every copy gets its own relabelling.
# Copies are set so that the median and the 90th percentile of latency
# fall inside blocks of graphs of similar cost, not between two shapes.
# Complete split-joins (clique, independent side) and complete multipartite
# part sizes with minimum degree at least n/2: pattern-free, so the scan
# never exits early, and the gate builds a Dirac cycle.
FREE_SPLIT_JOINS = [((12, 2), 8), ((14, 2), 12), ((16, 2), 6), ((20, 2), 8), ((22, 3), 2),
                    ((26, 4), 1)]
FREE_MULTIPARTITE = [([2] * 7, 8), ([2] * 8, 12), ([3] * 5, 12), ([4] * 4, 6), ([3] * 6, 4),
                     ([2] * 10, 4), ([5] * 4, 8)]
# Past the gate's degree threshold but below n/2, so the exact oracle runs.
# These are infeasible and end in a toughness witness ...
FREE_NON_DIRAC_SPLIT_JOINS = [((6, 8), 4), ((8, 10), 2)]
FREE_BIPARTITE = [([6, 4], 4), ([8, 4], 4)]
# ... and these exceed the lowered oracle cap and end in an oracle limit.
FREE_OVER_CAP_SPLIT_JOINS = [((7, 10), 2), ((8, 9), 1)]


def free_dense(tk, seed: int, tick=_no_tick) -> list[Group]:
    rng = random.Random(seed)
    group = Group("run", Fraction(11), tick=tick)
    over_cap = Group("run", Fraction(11), cap_oracle=SMALL_ORACLE_CAP, tick=tick)
    split_join = tk.generators.complete_split_join
    multipartite = tk.graph.Graph.complete_multipartite
    for target, shapes in ((group, FREE_SPLIT_JOINS + FREE_NON_DIRAC_SPLIT_JOINS),
                           (over_cap, FREE_OVER_CAP_SPLIT_JOINS)):
        for (clique, indep), copies in shapes:
            for _ in range(copies):
                target.add(tk, _shuffled(tk, split_join(clique, indep), rng),
                           family="complete_split_join", clique=clique, independent=indep)
    for parts, copies in FREE_MULTIPARTITE + FREE_BIPARTITE:
        for _ in range(copies):
            group.add(tk, _shuffled(tk, multipartite(parts), rng),
                      family="complete_multipartite", parts=parts)
    return [group, over_cap]


# ((G1 part sizes, bridge clique size, far-block part sizes), copies), and
# ((pairs k, low vertices, parts each low vertex is joined to), copies) for
# the case-2 family.
BRIDGE_CASE1_SHAPES = [
    (([1, 1], 2, [2] * 3), 18),
    (([1, 1], 3, [2] * 4), 24),
    (([1, 1], 4, [2] * 5), 22),
    (([2, 1], 3, [2] * 5), 2),
]
# From k = 9 on, the low vertices fall below 5n/24 in degree, so case 2
# builds a star matching for them and splices its paths into the cycle.
# The relabelling alone changes a graph's cost up to fourfold, so the
# 90th percentile is kept inside the large block of 16-vertex graphs,
# below the eight costliest graphs (these 20-vertex ones and the [2, 1]
# shape above).
BRIDGE_CASE2_SHAPES = [((6, 2, 2), 24), ((7, 2, 2), 22), ((9, 2, 2), 4)]
# G2 has 18 vertices, over the lowered oracle cap.
BRIDGE_OVER_CAP_SHAPES = [((9, 2, 2), 2)]


def case2_instance(tk, pairs: int, low: int, joins: int, rng):
    """complete_multipartite([2] * pairs) plus ``low`` independent vertices,
    each joined to ``joins`` whole parts; no two share a part."""
    base = tk.graph.Graph.complete_multipartite([2] * pairs)
    chosen = rng.sample(range(pairs), low * joins)
    edges = list(base.edges())
    for i in range(low):
        x = 2 * pairs + i
        for part in chosen[i * joins:(i + 1) * joins]:
            edges += [(2 * part, x), (2 * part + 1, x)]
    g = tk.graph.Graph.from_edges(2 * pairs + low, edges)
    return _shuffled(tk, g, rng)


def bridge(tk, seed: int, tick=_no_tick) -> list[Group]:
    rng = random.Random(seed)
    group = Group("run", Fraction(3, 2), tick=tick)
    over_cap = Group("run", Fraction(3, 2), cap_oracle=SMALL_ORACLE_CAP, tick=tick)
    for (g1_parts, s2, d2_parts), copies in BRIDGE_CASE1_SHAPES:
        for _ in range(copies):
            s = rng.randrange(1, 2 ** 31)
            g = tk.generators.case1_synthetic(g1_parts, s2, d2_parts, seed=s)
            group.add(tk, g, family="case1_synthetic", g1_parts=g1_parts, s2=s2,
                      d2_parts=d2_parts, seed=s)
    for target, shapes in ((group, BRIDGE_CASE2_SHAPES), (over_cap, BRIDGE_OVER_CAP_SHAPES)):
        for (pairs, low, joins), copies in shapes:
            for _ in range(copies):
                target.add(tk, case2_instance(tk, pairs, low, joins, rng),
                           family="case2_multipartite_plus_low", pairs=pairs, low=low,
                           joins=joins)
    return [group, over_cap]


def metrics_exact(tk, seed: int, tick=_no_tick) -> list[Group]:
    """One graph order with three densities, so the latency distribution has
    a single mode and its median moves little between seeds.  Complete
    multipartite draws are redrawn: they take the closed forms."""
    rng = random.Random(seed)
    group = Group("metrics", tick=tick)
    for p in (0.5, 0.7, 0.85):
        for _ in range(72):
            while True:
                s = rng.getrandbits(32)
                g = tk.generators.random_graph(11, p, s)
                if not isinstance(tk.recognition.multipartite_decompose(g),
                                  tk.recognition.Multipartition):
                    break
            group.add(tk, g, family="random", p=p, seed=s)
    return [group]


WORKLOADS = {
    "sweep-small": sweep_small,
    "free-dense": free_dense,
    "bridge": bridge,
    "metrics-exact": metrics_exact,
}
