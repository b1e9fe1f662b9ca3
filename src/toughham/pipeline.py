"""The certifying engine.

One run either builds a Hamilton cycle, or returns a machine-checkable
counter-witness, or reports an oracle limit.  The dispatcher order is:
forbidden-pattern scan, minimum-degree gate, then the proof's two cases.
A forbidden-pattern witness comes only from the scan; a toughness witness
from replaying a failed step's own counting argument.  Case 1: some edge
uv has a small union neighborhood; its split (a ``Decomposition``) yields
a path cover of G1 through outside anchors.  Case 2: no edge does; the
low-degree vertices form an independent set S, those of lowest degree are
starred out, and the rest are inserted afterwards.  Both cases end in
``_bridge``: a forced-edge Hamilton cycle of G2* (G2 plus the forced edges
L) with the paths spliced in, the oracle's polynomial first leaf when it
closes, else the cycle of a complete Bondy–Chvátal closure.  Only an open
closure leads to one test of the oracle's precondition κ(G2*) >= |L| +
α(G2*), which each case's counting facts on G2 imply; only a failed test's
replay computes them, and the first that fails becomes a certificate.

``run_theorem`` is the entry point.  The stage functions are its steps:
each takes the run's trace and trusts what the dispatcher and the earlier
stages built (the scan's verdict, the case-1 edge, the split) instead of
checking it again: where the proof closes a step with "else G induces
2p2+p1", the stage takes the conclusion as a fact and searches for nothing.

Every dead end goes through ``_salvage_or_limit``: a cheap probe for a
toughness witness, else an OracleLimit whose stage string says where.
With t below 11 a replay can reach a genuinely inconclusive state (the
proven-regime arithmetic no longer forces a contradiction); where that
state is arithmetically unreachable for t at least 11, hitting it raises
PipelineInternalError instead of guessing.  A solver past its size cap
raises OracleLimitExceeded, which no stage catches; ``run_theorem``
catches it once, around the gate and the two cases, and salvages it as
``<gate|case1|case2>.<solver>:cap``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from . import metrics
from .certificates import Certificate, OracleLimit, RunConfig, Trace
from .graph import Graph, GraphError, bit, bits, mask_of
from .hamilton import (CycleCert, PathCert, closure_cycle, dirac_cycle, first_leaf,
                       ham_cycle_forced, insert_vertices, multipartite_ham_path, validate_cycle,
                       validate_path)
from .matchings import k1t_matching
from .metrics import (INF, OracleLimitExceeded, ToughnessWitness, connectivity,
                      independence, threshold, validate_toughness_witness, verify_tough,
                      witness_from_independent_set)
# scattering stays bound: the benchmark harness times pipeline.scattering by name
from .metrics import scattering  # noqa: F401
from .recognition import (InducedWitness, Multipartition, find_induced, multipartite_decompose,
                          multipartite_parts)
# induces_pattern stays bound: the benchmark harness counts pipeline.induces_pattern by name
from .recognition import induces_pattern  # noqa: F401

PROVEN_T = Fraction(11)


class PipelineInternalError(RuntimeError):
    """A state the regime arithmetic rules out was reached: implementation bug."""

    stage: str | None = None  # gate, case1 or case2, set as run_theorem passes it on


class Decomposition(NamedTuple):
    """The case-1 split around an edge uv with a small union neighborhood.

    S is N(u) ∪ N(v) minus u, v; D1 = {u, v} and D2 are the two components
    of G - S; S1 holds the vertices of S with few neighbors in D2 and S2
    the rest.  G1 is S1 plus D1 and G2 is S2 plus D2.  Only what the later
    stages read is kept, all in the ids of G.
    """

    g1_mask: int
    g2_mask: int
    d2_mask: int
    g1_structure: Multipartition


class PathCover(NamedTuple):
    """Vertex-disjoint paths covering G1, endpoints in W inside G2."""

    paths: list[PathCert]
    w_mask: int

    def violations(self, g: Graph, g1_mask: int, g2_mask: int,
                   expected_count: int) -> list[str]:
        bad = []
        seen = 0
        for p in self.paths:
            if not validate_path(g, p):
                bad.append(f"not a path of the graph: {p.order}")
                continue
            pm = mask_of(p.order)
            if pm & seen:
                bad.append("paths share a vertex")
            seen |= pm
            a, b = p.ends
            if not (self.w_mask >> a & 1 and self.w_mask >> b & 1):
                bad.append(f"endpoints {a},{b} not in W")
            if mask_of(p.order[1:-1]) & ~g1_mask:
                bad.append("internal vertices leave G1")
        if self.w_mask & ~g2_mask:
            bad.append("W is not inside G2")
        if g1_mask & ~seen:
            bad.append("G1 is not covered")
        if len(self.paths) != expected_count:
            bad.append(f"{len(self.paths)} paths, expected {expected_count}")
        return bad


def expected_cover_size(s_value) -> int:
    """max(1, s(G1)), reading the complete-G1 convention as a single path."""
    if s_value == INF or s_value <= 0:
        return 1
    return int(s_value)


def _salvage_or_limit(g: Graph, cfg: RunConfig, trace: Trace, stage: str,
                      regime_impossible: bool = False) -> Certificate:
    """Dead end in a replay or a cap hit: probe cheaply for a witness, else report.

    Stages unreachable for t >= 11 raise instead of returning an inconclusive marker.
    """
    probe = metrics.probe_tough(g, cfg.t)
    if probe is not None:
        trace.add("salvage", stage=stage, ratio=probe.ratio)
        return probe
    if regime_impossible and cfg.t >= PROVEN_T:
        raise PipelineInternalError(f"unreachable state at {stage}")
    trace.add("inconclusive", stage=stage)
    return OracleLimit(stage)


def _witness(trace: Trace, stage: str, w: ToughnessWitness) -> ToughnessWitness:
    """Write the trace record of a toughness witness and return it."""
    trace.add("witness", stage=stage, ratio=w.ratio, ids=bits(w.cutset))
    return w


def _tough_or_dead_end(g, cfg, trace, stage, witness,
                       regime_impossible=False) -> Certificate:
    if witness is not None and validate_toughness_witness(g, witness, cfg.t):
        return _witness(trace, stage, witness)
    return _salvage_or_limit(g, cfg, trace, stage, regime_impossible)


def _traced_witness(g: Graph, indep: int, cfg: RunConfig, trace: Trace,
                    stage: str) -> ToughnessWitness | None:
    """Toughness witness from an independent set of g, traced; None when it
    fails validation."""
    w = witness_from_independent_set(g, indep, cfg.t)
    return None if w is None else _witness(trace, stage, w)


def _min_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# --- dispatcher ---------------------------------------------------------------

def run_theorem(g: Graph, cfg: RunConfig | None = None) -> tuple[Certificate, list[str]]:
    """Run the full certifying pipeline on g; returns (certificate, trace lines)."""
    if cfg is None:
        cfg = RunConfig()
    if g.n < 3:
        raise GraphError("certification needs at least three vertices")
    trace = Trace()
    trace.add("config", t=cfg.t, n=g.n, cap_oracle=cfg.cap_oracle,
              regime=(cfg.t >= PROVEN_T))

    hit = find_induced(g)
    if hit is not None:
        trace.add("freeness", result="witness", ids=hit.vertices)
        return hit, trace.lines
    trace.add("freeness", result="free")

    where = "gate"
    try:
        gate = min_degree_gate(g, cfg, trace)
        if gate is not None:
            return gate, trace.lines
        pick = _case1_edge(g)
        where = "case2" if pick is None else "case1"
        if pick is None:
            trace.add("dispatch", case=2)
            return case2_run(g, cfg, trace), trace.lines
        trace.add("dispatch", case=1, u=pick[0], v=pick[1])
        dec = case1_decompose(g, pick, cfg, trace)
        if not isinstance(dec, Decomposition):
            return dec, trace.lines
        cover = build_path_cover(g, dec, cfg, trace)
        if not isinstance(cover, PathCover):
            return cover, trace.lines
        return case1_finish(g, dec, cover, cfg, trace), trace.lines
    except OracleLimitExceeded as exc:
        # the one place a cap hit ends: probed like any other dead end
        return _salvage_or_limit(g, cfg, trace, f"{where}.{exc.stage}:cap"), trace.lines
    except PipelineInternalError as exc:
        exc.stage = where
        raise


def _small_union(g: Graph, size: int) -> bool:
    """The case-1 edge test on the size of N(u) ∪ N(v): at most 5n/12."""
    return 12 * size <= 5 * g.n


def _case1_edge(g: Graph) -> tuple[int, int] | None:
    """Qualifying edge minimizing the union neighborhood, lex-smallest on ties."""
    adj = g.adj
    # the union holds both neighbourhoods: each end passes on its own degree
    low = mask_of(v for v in range(g.n) if _small_union(g, adj[v].bit_count()))
    keys = (((adj[u] | adj[v]).bit_count(), u, v)
            for u in bits(low) for v in bits(adj[u] & low >> (u + 1) << (u + 1)))
    best = min((key for key in keys if _small_union(g, key[0])), default=None)
    return None if best is None else best[1:]


def min_degree_gate(g: Graph, cfg: RunConfig, trace: Trace) -> Certificate | None:
    """Hamilton cycle when the minimum degree is large; None to pass through.

    Above the n/(t+1) - 1 threshold a t-tough graph is Hamiltonian; the
    constructive route applies from minimum degree n/2 up, below that the
    exact oracle stands in and a failed search must be matched by a
    toughness witness.  On pass-through the facts a tough graph must
    satisfy are checked: minimum degree at least 2t, independence number
    at most n/(t+1).  A violation is already a certificate.  A step of
    ``run_theorem``; it writes to that run's trace.
    """
    n = g.n
    delta = g.min_degree()
    bound = threshold(n, cfg.t)
    thr = bound - 1
    if delta > thr:
        if 2 * delta >= n:
            trace.add("gate", fired=True, method="dirac", delta=delta, threshold=thr)
            return dirac_cycle(g)
        cyc = ham_cycle_forced(g, (), cap=cfg.cap_oracle)
        trace.add("gate", fired=True, method="oracle", delta=delta, threshold=thr,
                  result="cycle" if cyc else "infeasible")
        if cyc is not None:
            return cyc
        witness = verify_tough(g, cfg.t)
        if witness is None:
            raise PipelineInternalError(
                "non-Hamiltonian t-tough graph above the degree threshold")
        return _witness(trace, "gate", witness)
    trace.add("gate", fired=False, delta=delta, threshold=thr)
    if delta < 2 * cfg.t:
        v = min(range(n), key=lambda x: (g.adj[x].bit_count(), x))
        w = ToughnessWitness(g.adj[v], g.component_count(g.adj[v]))
        trace.add("gate-fact", fact="min-degree-below-2t", vertex=v)
        return _tough_or_dead_end(g, cfg, trace, "gate.low-degree", w,
                                  regime_impossible=True)
    trace.add("gate-fact", fact="delta-at-least-2t", delta=delta)
    try:
        alpha, aset = independence(g)
    except OracleLimitExceeded:
        trace.add("gate-fact", fact="alpha", alpha="skipped")
        return None
    trace.add("gate-fact", fact="alpha", alpha=alpha, bound=bound)
    if alpha > bound:
        w = witness_from_independent_set(g, aset, cfg.t)
        return _tough_or_dead_end(g, cfg, trace, "gate.alpha", w,
                                  regime_impossible=True)
    return None


# --- case 1 -------------------------------------------------------------------

def case1_decompose(g: Graph, uv: tuple[int, int], cfg: RunConfig,
                    trace: Trace) -> Decomposition | Certificate:
    """Build the case-1 split around edge uv, verifying its two structure checks.

    uv is the edge ``run_theorem`` picked (``_case1_edge``), so it is an
    edge with a small union neighborhood, and D1 = {u, v} is a component
    of G - S.  First check: removing S leaves exactly two components.  It
    cannot leave one, as |S| + 2 <= 5n/12 < n; past two, S alone is the
    cutset to try: S plus u,v leaves k - 1 of the k components, and
    (|S| + 2)/(k - 1) > |S|/k.  Second: the low-outside-degree part of S
    together with u,v induces no edge-plus-isolated-vertex.  Each failure
    replays the check's own counting argument into a certificate.  A step
    of ``run_theorem``; it writes to that run's trace.
    """
    u, v = uv
    n, t = g.n, cfg.t
    d1 = bit(u) | bit(v)
    s_mask = (g.adj[u] | g.adj[v]) & ~d1
    comps = g.components(s_mask)
    trace.add("split-check", components=len(comps), s_size=s_mask.bit_count())
    if len(comps) != 2:
        return _tough_or_dead_end(g, cfg, trace, "case1.split",
                                  ToughnessWitness(s_mask, len(comps)), regime_impossible=True)

    d2 = next(c for c in comps if c != d1)
    thr2 = threshold(n, t, 2)
    s1 = 0
    for x in bits(s_mask):
        if (g.adj[x] & d2).bit_count() < thr2:
            s1 |= bit(x)
    s2 = s_mask & ~s1

    structure = multipartite_decompose(g, s1 | d1)
    if isinstance(structure, InducedWitness):
        trace.add("block-structure", result="violated", ids=structure.vertices)
        return _block_structure_replay(g, d2, structure.vertices, cfg, trace)
    trace.add("block-structure", result="free", parts=len(structure.parts))
    return Decomposition(g1_mask=s1 | d1, g2_mask=s2 | d2, d2_mask=d2,
                         g1_structure=structure)


def _block_structure_replay(g: Graph, d2: int, triple, cfg: RunConfig,
                            trace: Trace) -> Certificate:
    """An induced edge-plus-vertex inside G1 escalates: the part of D2 its
    neighborhoods miss is independent, since the scan found no 2p2+p1 (an
    edge in there would complete one), and too large to be independent in a
    tough graph."""
    missed = d2 & ~g.set_neighborhood(mask_of(triple))
    w = witness_from_independent_set(g, missed, cfg.t)
    if w is not None and missed.bit_count() > threshold(g.n, cfg.t):
        return _witness(trace, "case1.block-structure", w)
    return _salvage_or_limit(g, cfg, trace, "case1.block-structure", regime_impossible=True)


def build_path_cover(g: Graph, dec: Decomposition, cfg: RunConfig,
                     trace: Trace) -> PathCover | Certificate:
    """W-matched path cover of G1 with max(1, s(G1)) paths.

    G1 is complete multipartite: with C a largest part and T the rest, T
    is a minimum cutset and a scattering set, so s(G1) = |C| - |T|, or
    infinite when every part is one vertex (G1 complete).  Scattering below
    zero (or complete G1): G1 is Hamiltonian-connected and one
    outside-anchored path suffices.  Otherwise a two-leaf star-matching
    centered on C supplies outside anchors and three balance subcases
    assemble the cover.  A step of ``run_theorem``; dec is the split
    ``case1_decompose`` returned in the same run, and the records go to
    that run's trace.
    """
    size_c = dec.g1_structure.largest_part().bit_count()
    size_g1 = dec.g1_mask.bit_count()
    s_value = INF if size_c == 1 else 2 * size_c - size_g1
    trace.add("cover-plan", s=("inf" if s_value == INF else s_value), g1_size=size_g1)

    if s_value == INF or s_value <= -1:
        got = _cover_connected(g, dec, cfg, trace)
    else:
        got = _cover_scattered(g, dec, cfg, trace)
    if not isinstance(got, PathCover):
        return got
    bad = got.violations(g, dec.g1_mask, dec.g2_mask, expected_cover_size(s_value))
    if bad:
        raise PipelineInternalError(f"path cover invalid: {bad}")
    trace.add("path-cover", paths=len(got.paths), ids=bits(got.w_mask))
    return got


def _anchor_pair(g: Graph, pairs, v2: int):
    """First of the candidate pairs x,y with distinct outside anchors z,w
    (neighbors in v2 of x and of y); None when no such system exists."""
    for x, y in pairs:
        nx, ny = g.adj[x] & v2, g.adj[y] & v2
        if not nx or not ny or (nx | ny).bit_count() < 2:
            continue
        z = _min_bit(nx)
        if ny & ~bit(z):
            return x, y, z, _min_bit(ny & ~bit(z))
        return x, y, _min_bit(nx & ~bit(z)), z
    return None


def _one_path_cover(parts, x: int, y: int, z: int, w: int, missing: str) -> PathCover:
    """The path z, (Hamiltonian x-y path of the complete multipartite graph
    with these parts), w as a cover.  A missing x-y path raises with the
    given message."""
    path = multipartite_ham_path(parts, x, y)
    if path is None:
        raise PipelineInternalError(missing)
    return PathCover([PathCert((z,) + path.order + (w,))], bit(z) | bit(w))


def _cover_connected(g, dec, cfg, trace):
    """Single path through a Hamiltonian-connected G1, anchored outside."""
    v1, v2 = dec.g1_mask, dec.g2_mask
    got = _anchor_pair(g, combinations(bits(v1), 2), v2)
    if got is None:
        # no two independently anchored vertices: a tiny cutset shatters G
        linked = [x for x in bits(v1) if g.adj[x] & v2]
        if not linked:
            cut = 0
        elif len(linked) == 1:
            cut = bit(linked[0])
        else:
            cut = bit(_min_bit(g.adj[linked[0]] & v2))
        w = ToughnessWitness(cut, g.component_count(cut))
        return _tough_or_dead_end(g, cfg, trace, "case1.cover.anchors", w,
                                  regime_impossible=True)
    x, y, z, w = got
    return _one_path_cover(dec.g1_structure.parts, x, y, z, w,
                           "Hamiltonian-connected G1 refused a path")


def _cover_scattered(g, dec, cfg, trace):
    """The s(G1) >= 0 branch, so |T| <= |C|: minimum cutset T, star anchors,
    three subcases."""
    v1, v2, parts = dec.g1_mask, dec.g2_mask, dec.g1_structure.parts
    centers = dec.g1_structure.largest_part()
    t_set = v1 & ~centers
    size_t = t_set.bit_count()
    size_c = centers.bit_count()

    got = k1t_matching(g, centers)
    if isinstance(got, ToughnessWitness):
        return _tough_or_dead_end(g, cfg, trace, "case1.cover.star", got)
    stars = {center: leaves for center, leaves in got.stars}
    trace.add("star-matching", centers=size_c, stage="case1")

    def anchored_pair(candidates, missing):
        """The first two candidate centers with a leaf in G2, and those leaves."""
        anchored = [(c, ls[0]) for c in candidates
                    if (ls := [l for l in stars[c] if v2 >> l & 1])]
        if len(anchored) < 2:
            raise PipelineInternalError(missing)
        (x, z), (y, w) = anchored[:2]
        return x, y, z, w

    if size_t < size_c:
        u_set = [c for c in sorted(stars) if any(t_set >> l & 1 for l in stars[c])]
        fillers = sorted(stars.keys() - u_set)
        if len(u_set) > size_t:
            raise PipelineInternalError("more anchored centers than cutset vertices")
        ustar = sorted(u_set + fillers[: size_t + 1 - len(u_set)])
        x, y, z, w = anchored_pair(ustar, "star-matching left under two outside anchors")
        # an induced subgraph of the complete multipartite G1 is one as well
        paths, w_mask = _one_path_cover(multipartite_parts(g, t_set | mask_of(ustar)),
                                        x, y, z, w, "alternating path through T and U* missing")
        for c in sorted(stars.keys() - ustar):
            ls = stars[c]
            if not all(v2 >> l & 1 for l in ls):
                raise PipelineInternalError("unanchored center holds a cutset partner")
            paths.append(PathCert((ls[0], c, ls[1])))
            w_mask |= bit(ls[0]) | bit(ls[1])
        return PathCover(paths, w_mask)

    # |T| equals the number of centers
    n1 = v1.bit_count()
    if n1 <= 21:
        got = _anchor_pair(g, product(bits(t_set), bits(centers)), v2)
        if got is None:
            return _salvage_or_limit(g, cfg, trace, "case1.cover.balanced-small")
        x, y, z, w = got
        return _one_path_cover(parts, x, y, z, w, "cross path through balanced G1 missing")

    x, y, z, w = anchored_pair(sorted(stars), "balanced case lost its two outside anchors")
    if not metrics.is_independent(g, t_set):
        return _one_path_cover(parts, x, y, z, w, "same-part path missing despite edged cutset")
    # T independent: some cutset vertex must reach outside past z
    xstar = zstar = -1
    for cand in bits(t_set):
        reach = g.adj[cand] & v2 & ~bit(z)
        if reach:
            xstar, zstar = cand, _min_bit(reach)
            break
    if xstar < 0:
        cut = g.set_neighborhood(t_set)
        w_cert = ToughnessWitness(cut, g.component_count(cut))
        return _tough_or_dead_end(g, cfg, trace, "case1.cover.starved-cutset",
                                  w_cert, regime_impossible=True)
    return _one_path_cover(parts, x, xstar, z, zstar,
                           "cross path missing in the balanced independent case")


def _splice(order, cover_paths) -> tuple[int, ...]:
    """Replace each endpoint pair occurring consecutively on the cycle with
    the interior of its cover path."""
    ends = {}
    for p in cover_paths:
        ends[p.order[0]] = p.order[-1], p.order[1:-1]
        ends[p.order[-1]] = p.order[0], p.order[-2:0:-1]
    out: list[int] = []
    missed = len(cover_paths)
    for a, b in zip(order, order[1:] + order[:1]):
        out.append(a)
        end = ends.get(a)
        if end is not None and end[0] == b:
            out.extend(end[1])
            missed -= 1
    if missed:
        raise PipelineInternalError("spliced cycle missed a cover path")
    return tuple(out)


def _bridge(g: Graph, g2_mask: int, paths, cfg: RunConfig, trace: Trace, case: str,
            replay) -> Certificate:
    """The step both cases end with: a Hamilton cycle of G2* (G2 plus the
    forced edges L, one joining the ends of each path), paths spliced in.
    The spliced cycle comes back unvalidated, for ``_finish`` to validate.

    Every step runs on G + L inside G2's mask, in G's own ids, so no
    induced copy of G2 or G2* is built.  First two polynomial builders on
    (G2*, L), each traced as one record and computing no fact when it
    closes: the oracle's first leaf, then ``closure_cycle``.  Only an open
    closure pays for the one test of the oracle's precondition, κ(G2*) >=
    |L| + α(G2*) (Chvátal & Erdős, Discrete Math. 1972, with forced edges).
    Each case's counting facts on G2 imply it, as adding edges never lowers
    κ (n - 1 when complete) nor raises α; so on failure
    ``replay(alpha_star, aset_star)`` computes G2's facts on (G, G2's mask)
    and returns the certificate of the first that fails.
    """
    if g2_mask.bit_count() < 3:
        return _salvage_or_limit(g, cfg, trace, f"{case}.connectivity.tiny")
    ends = [p.ends for p in paths]
    l_size = len(ends)
    g_l = g.add_edges(ends)
    for name, build in (("first-leaf", first_leaf), ("closure", closure_cycle)):
        cyc = build(g_l, ends, g2_mask)
        if cyc is not None:
            trace.add(name, l_size=l_size, stage=case)
            return CycleCert(_splice(cyc.order, paths))
    alpha_star, aset_star = independence(g_l, g2_mask)
    kappa_star, _ = connectivity(g_l, g2_mask)
    holds = kappa_star >= l_size + alpha_star
    trace.add("oracle-precondition", kappa_g2star=kappa_star, alpha_g2star=alpha_star,
              l_size=l_size, holds=holds, stage=case)
    if not holds:
        return replay(alpha_star, aset_star)
    cyc = ham_cycle_forced(g_l, ends, cfg.cap_oracle, g2_mask)
    if cyc is None:
        raise PipelineInternalError("forced-edge oracle failed with its precondition met")
    return CycleCert(_splice(cyc.order, paths))


def _finish(g: Graph, cyc: CycleCert, trace: Trace, case: str) -> Certificate:
    if not validate_cycle(g, cyc):
        raise PipelineInternalError(f"{case} cycle failed validation")
    trace.add("cycle", stage=case, length=len(cyc.order))
    return cyc


def case1_finish(g: Graph, dec: Decomposition, cover: PathCover, cfg: RunConfig,
                 trace: Trace) -> Certificate:
    """Connect the cover through G2: forced-edge cycle, then splice.

    The counting facts |L|, α(G2) <= n/(t+1) and κ(G2) >= 2n/(t+1) imply
    ``_bridge``'s test after an open closure, as κ(G2*) >= κ(G2) >= |L| +
    α(G2) >= |L| + α(G2*); its failure replays the first that fails: the
    paths, α(G2), a small cut of G2, all on G2's mask in G's own ids.  A
    step of ``run_theorem``; it writes to that run's trace.
    """
    n, t = g.n, cfg.t
    bound, kappa_bound = threshold(n, t), threshold(n, t, 2)

    def replay(alpha_star, aset_star):
        alpha2, aset2 = independence(g, dec.g2_mask)
        kappa2, cut2 = connectivity(g, dec.g2_mask)
        trace.add("bridge-connectivity", alpha_g2=alpha2, kappa_g2=kappa2, bound=bound)
        if len(cover.paths) > bound:
            w = _traced_witness(g, dec.g1_structure.largest_part(), cfg, trace,
                                "case1.connectivity.paths")
            if w is not None:
                return w
        if alpha2 > bound:
            w = _traced_witness(g, aset2, cfg, trace, "case1.connectivity.alpha")
            if w is not None:
                return w
        if kappa2 < kappa_bound and cut2 is not None:
            return _case1_cut_replay(g, dec, cut2, cfg, trace)
        return _salvage_or_limit(g, cfg, trace, "case1.connectivity")

    got = _bridge(g, dec.g2_mask, cover.paths, cfg, trace, "case1", replay)
    return _finish(g, got, trace, "case1") if isinstance(got, CycleCert) else got


def _case1_cut_replay(g: Graph, dec: Decomposition, cut: int, cfg: RunConfig,
                       trace: Trace) -> Certificate:
    """``cut``, a small cutset W of G2, replays the case-1 connectivity
    analysis.  Once D2 - W holds an edge, its component of G - G1 - W holds
    all of D2 - W, as the scan found no 2p2+p1 (uv, the edge and a D2 vertex
    of another component would induce one)."""
    comps = g.components(dec.g1_mask | cut)
    if all(c.bit_count() == 1 for c in comps):
        w = ToughnessWitness(dec.g1_mask | cut, len(comps))
        return _tough_or_dead_end(g, cfg, trace, "case1.connectivity.shattered", w,
                                  regime_impossible=True)
    d2rem = dec.d2_mask & ~cut
    if metrics.is_independent(g, d2rem):
        w = witness_from_independent_set(g, d2rem, cfg.t)
        return _tough_or_dead_end(g, cfg, trace, "case1.connectivity.bare-remainder", w,
                                  regime_impossible=True)
    # any other component sits inside S2, whose outside degree forces the
    # cutset to be large: contradicts how we got here, at any t
    raise PipelineInternalError("high-outside-degree component inside a small cut")


# --- case 2 -------------------------------------------------------------------

def case2_run(g: Graph, cfg: RunConfig, trace: Trace) -> Certificate:
    """No edge has a small union neighborhood: star out the low-degree
    vertices, cycle through the rest with forced edges, splice, and insert
    the leftovers.  A step of ``run_theorem``, taken once ``_case1_edge``
    found no edge; it writes to that run's trace.  The low-degree set S is
    independent: two adjacent vertices u, v with 24·deg < 5n each would
    have 12·|N(u) ∪ N(v)| < 5n, an edge ``_case1_edge`` would have picked.
    The counting facts α(G2*) <= n/(t+1) and κ(G2) >= |L| + n/(t+1) imply
    ``_bridge``'s test after an open closure, as κ(G2*) >= κ(G2); its
    failure replays the first that fails: α(G2*), then a small cut of G2,
    both in G's own ids."""
    n, t = g.n, cfg.t
    s_mask = 0
    for x in range(n):
        if 24 * g.adj[x].bit_count() < 5 * n:
            s_mask |= bit(x)
    s1 = 0
    thr = threshold(n, t)
    for x in bits(s_mask):
        if g.adj[x].bit_count() < thr:
            s1 |= bit(x)
    trace.add("case2-setup", s_size=s_mask.bit_count(), s1_size=s1.bit_count(),
              threshold=thr)

    if s_mask.bit_count() > thr:
        w = witness_from_independent_set(g, s_mask, t)
        return _tough_or_dead_end(g, cfg, trace, "case2.s-bound", w,
                                  regime_impossible=True)

    stars = ()
    if s1:
        got = k1t_matching(g, s1)
        if isinstance(got, ToughnessWitness):
            return _tough_or_dead_end(g, cfg, trace, "case2.star", got)
        stars = got.stars
    star_paths = [PathCert((leaves[0], center, leaves[1])) for center, leaves in stars]
    trace.add("star-matching", centers=s1.bit_count(), stage="case2")

    g2_mask = g.full & ~s_mask

    def replay(alpha_star, aset_star):
        kappa2, cut2 = connectivity(g, g2_mask)
        trace.add("bridge-connectivity", kappa_g2=kappa2, bound=thr)
        if alpha_star > thr:
            w = _traced_witness(g, aset_star, cfg, trace, "case2.connectivity.alpha")
            if w is not None:
                return w
        if kappa2 < len(star_paths) + thr and cut2 is not None:
            return _case2_cut_replay(g, s_mask, s1, cut2, cfg, trace)
        return _salvage_or_limit(g, cfg, trace, "case2.connectivity")

    got = _bridge(g, g2_mask, star_paths, cfg, trace, "case2", replay)
    if not isinstance(got, CycleCert):
        return got
    pending = s_mask & ~s1
    if pending:
        got, fallbacks = insert_vertices(g, got, pending, t)
        if not isinstance(got, CycleCert):
            return _tough_or_dead_end(g, cfg, trace, "case2.insert", got)
        trace.add("insertion", inserted=pending.bit_count(), fallbacks=fallbacks)
    return _finish(g, got, trace, "case2")


def _case2_cut_replay(g: Graph, s_mask: int, s1: int, cut: int, cfg: RunConfig,
                      trace: Trace) -> Certificate:
    """``cut``, a small cutset W of G2, replays the case-2 connectivity
    analysis.  As the scan found no 2p2+p1, once no component of G - S - W
    is one vertex there are two (edges of two and a vertex of a third would
    induce it), each complete multipartite (an edge-plus-vertex in one and
    an edge of the other would), and each vertex of S1 misses no edge of one
    of them (it and an edge of each would): so the pairing can only run out."""
    n, t = g.n, cfg.t
    comps = g.components(s_mask | cut)
    if any(c.bit_count() == 1 for c in comps):
        # both trivial-component subcases contradict verified degree facts
        # once t reaches the proven regime
        return _salvage_or_limit(g, cfg, trace, "case2.connectivity.trivial",
                                 regime_impossible=True)
    for q in comps:
        if (t + 1) * q.bit_count() <= 2 * n:
            return _salvage_or_limit(g, cfg, trace, "case2.connectivity.small-component",
                                     regime_impossible=True)
        parts = multipartite_parts(g, q)
        if parts is None:
            raise PipelineInternalError("a component past a small cut is not multipartite")
        part = Multipartition(parts).largest_part()
        if part.bit_count() > threshold(n, t):
            w = witness_from_independent_set(g, part, t)
            return _tough_or_dead_end(g, cfg, trace, "case2.connectivity.component-alpha",
                                      w, regime_impossible=True)
    end = "pairing-exhausted" if s1 else "no-low-vertex"
    return _salvage_or_limit(g, cfg, trace, f"case2.connectivity.{end}")

