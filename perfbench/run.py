"""Benchmark harness for the toughham certifying engine.

    python3 perfbench/run.py --workload bridge --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one caller in one process and one thread.
A request starts when the previous one has finished.  A run request is one
graph6 line taken through ``parse_graph6``, ``run_theorem``,
``certificate_to_record`` and ``check_certificate``, the steps of
``toughham run`` followed by ``toughham check``.  A metrics request is one
``toughham metrics`` line: toughness, connectivity, independence and
scattering.  Passes repeat until the time is used; each builds its own
corpus from the seed (see ``workloads.pass_seed``).

``--trace 0`` reports the end-to-end metrics of untraced passes.  Each
pass starts with a fresh import and a build of its corpus (the set-up),
then runs every graph of it once.  Every timed piece of work, a
request or a step of the set-up, is scaled to a nominal host speed by a
reference computation run between the pieces (see ``speed.py``), so that
the shared host's slow and fast phases do not move the figures.
``--trace 1`` alternates untraced and traced passes over the corpus of
pass 0 (set-up included) and reports per-layer metrics from the traced
ones: self time per wrapped function, exact call counts, cap hits and
fallbacks, tracing overhead and coverage.

Every run checks its outputs: each certificate is rechecked, each metric
witness is validated, the records of pass 0 must match
``toughham.cli.main`` on the same graph6 files, and each graph must reach
the layer its workload exists for.  Digests, tallies and counts are kept
under ``.perfbench_out/`` at the repository root; a later run with the
same seed and the same sources must reproduce them exactly.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import itertools
import json
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("graph", "graph6", "recognition", "metrics", "hamilton", "matchings",
           "certificates", "pipeline", "generators", "cli")
MIN_GRAPHS = 100         # per pass: at least ten latency samples beyond p90
MIN_PASSES = 3           # set-ups to take the median of; latency samples >= 3 x 100
MIN_TRACED_PASSES = 2    # call counts must repeat between traced passes
clock = time.perf_counter

LAYER_METRICS = [
    ("recognition.find_induced.self_s", "s"),
    ("recognition.find_induced.calls", "count"),
    ("recognition.find_induced.witness_ratio", "ratio"),
    ("recognition.multipartite_decompose.self_s", "s"),
    ("recognition.multipartite_decompose.calls", "count"),
    ("recognition.induces_pattern.calls", "count"),
    ("pipeline.run_theorem.self_s", "s"),
    ("pipeline.min_degree_gate.self_s", "s"),
    ("pipeline.case1_decompose.self_s", "s"),
    ("pipeline.case1_decompose.calls", "count"),
    ("pipeline.build_path_cover.self_s", "s"),
    ("pipeline.case1_finish.self_s", "s"),
    ("pipeline.case2_run.self_s", "s"),
    ("pipeline.case2_run.calls", "count"),
    ("metrics.connectivity.self_s", "s"),
    ("metrics.connectivity.calls", "count"),
    ("metrics.independence.self_s", "s"),
    ("metrics.independence.calls", "count"),
    ("metrics.toughness.self_s", "s"),
    ("metrics.scattering.self_s", "s"),
    ("metrics.verify_tough.self_s", "s"),
    ("metrics.probe_tough.self_s", "s"),
    ("metrics.probe_tough.calls", "count"),
    ("graph.component_count.calls", "count"),
    ("graph.components.calls", "count"),
    ("hamilton.ham_cycle_forced.self_s", "s"),
    ("hamilton.ham_cycle_forced.calls", "count"),
    ("hamilton.ham_cycle_forced.cap_hits", "count"),
    ("hamilton.dirac_cycle.self_s", "s"),
    ("hamilton.multipartite_ham_path.self_s", "s"),
    ("hamilton.insert_vertices.self_s", "s"),
    ("hamilton.insert_vertices.fallbacks", "count"),
    ("matchings.k1t_matching.self_s", "s"),
    ("matchings.k1t_matching.calls", "count"),
    ("certificates.check_certificate.self_s", "s"),
    ("certificates.certificate_to_record.self_s", "s"),
    ("graph6.parse_graph6.self_s", "s"),
    ("generators.random_in_class.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
]


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program sources)."""


# --- set-up --------------------------------------------------------------------

def forget_toughham() -> None:
    for name in [m for m in sys.modules if m == "toughham" or m.startswith("toughham.")]:
        del sys.modules[name]
    gc.collect()  # free the earlier import now, so peak memory does not depend on timing


def load_toughham() -> SimpleNamespace:
    pkg = importlib.import_module("toughham")
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise BenchError(f"toughham imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module("toughham." + m) for m in MODULES})


def import_toughham() -> SimpleNamespace:
    """Fresh import of the program from this checkout's ``src``."""
    forget_toughham()
    return load_toughham()


def set_up(workload: str, seed: int, k: int = 0):
    """Fresh import and build of the corpus of pass k, timed in pieces (the
    import, then one per generated graph); returns the import, the groups
    and the scaled set-up time."""
    forget_toughham()
    meter = speed.Meter()
    meter.start()
    tk = load_toughham()
    meter.lap()
    groups = workloads.WORKLOADS[workload](tk, workloads.pass_seed(seed, k), tick=meter.lap)
    return tk, groups, sum(meter.stop())


# --- requests --------------------------------------------------------------------

class RunOut(NamedTuple):
    g: object
    trace: list
    record: str
    ok: bool

    @property
    def inconclusive(self) -> bool:
        return "kind=oracle-limit" in self.record

    @property
    def failed(self) -> bool:
        return not self.ok and not self.inconclusive


class MetricsOut(NamedTuple):
    g: object
    line: str
    found: dict   # key -> (value, witness) for each quantity within its cap

    @property
    def inconclusive(self) -> bool:
        return "=limit" in self.line

    failed = False


class ErrorOut(NamedTuple):
    error: Exception
    inconclusive = False
    failed = True


def run_request(tk, line: str, cfg) -> RunOut:
    g = tk.graph6.parse_graph6(line)
    cert, trace = tk.pipeline.run_theorem(g, cfg)
    record = tk.certificates.certificate_to_record(cert)
    ok, _reason = tk.certificates.check_certificate(g, cert, cfg)
    return RunOut(g, trace, record, ok)


def metrics_request(tk, line: str) -> MetricsOut:
    g = tk.graph6.parse_graph6(line)
    m = tk.metrics
    fmt_q = tk.certificates.fmt_q
    found = {}

    def attempt(key, solver, render):
        try:
            value, witness = solver(g)
        except m.OracleLimitExceeded:
            return "limit"
        found[key] = (value, witness)
        return render(value)

    tau = attempt("tau", m.toughness, lambda v: "inf" if v == m.INF else fmt_q(v))
    kappa = attempt("kappa", m.connectivity, str)
    alpha = attempt("alpha", m.independence, str)
    s = attempt("s", m.scattering, lambda v: "inf" if v == m.INF else str(v))
    return MetricsOut(g, f"tau={tau} kappa={kappa} alpha={alpha} delta={g.min_degree()} s={s}",
                      found)


def run_pass(tk, groups, configs, meter=None):
    """One closed-loop pass; returns the outputs.  With a meter, each
    request is one of its pieces."""
    outputs = []
    if meter is not None:
        meter.start()
    for group, cfg in zip(groups, configs):
        for line in group.lines:
            try:
                out = (metrics_request(tk, line) if cfg is None
                       else run_request(tk, line, cfg))
            except Exception as exc:  # one bad request must not end the run
                out = ErrorOut(exc)
            if meter is not None:
                meter.lap()
            outputs.append(out)
    return outputs


def render(tk, groups, outputs) -> list[str]:
    """Per group, the exact text ``toughham run`` or ``toughham metrics`` prints."""
    texts, it = [], iter(outputs)
    for group in groups:
        records = []
        for index, _line in enumerate(group.lines):
            out = next(it)
            if isinstance(out, ErrorOut):
                records.append(f"error index={index} exception={type(out.error).__name__}")
            elif isinstance(out, MetricsOut):
                records.append(out.line)
            else:
                records.append(tk.certificates.record_line(
                    "graph", [("index", index), ("n", out.g.n), ("t", group.t)]))
                records.extend(out.trace)
                records.append(out.record)
        texts.append("\n".join(records) + "\n")
    return texts


def digest(groups, texts) -> str:
    h = hashlib.sha256()
    for group, text in zip(groups, texts):
        h.update(json.dumps(group.config(), sort_keys=True).encode() + b"\n")
        h.update(text.encode())
    return h.hexdigest()


# --- output checks ---------------------------------------------------------------

def metric_witness_problems(tk, out: MetricsOut) -> list[str]:
    g, found, m, bad = out.g, out.found, tk.metrics, []
    if "tau" in found:
        # the witness must attain tau exactly: valid below any threshold above it
        tau, w = found["tau"]
        if tau != m.INF and not (w.ratio == tau and m.validate_toughness_witness(
                g, w, tau + Fraction(1, g.n * g.n))):
            bad.append("toughness witness")
    if "s" in found:
        s, sset = found["s"]
        if s != m.INF and not (sset.value == s and m.validate_scattering_set(g, sset)):
            bad.append("scattering set")
    if "kappa" in found:
        kappa, cut = found["kappa"]
        if cut is not None and not (cut.bit_count() == kappa
                                    and g.component_count(cut) >= 2):
            bad.append("connectivity cut")
    if "alpha" in found:
        alpha, aset = found["alpha"]
        members = [v for v in range(g.n) if aset >> v & 1]
        if len(members) != alpha or any(g.adj[v] & aset for v in members):
            bad.append("independent set")
    return bad


def output_problems(tk, workload, outputs) -> list[str]:
    bad = layer_problems(tk, workload, outputs)
    for index, out in enumerate(outputs):
        if isinstance(out, MetricsOut):
            bad += [f"graph {index}: invalid {what}" for what in metric_witness_problems(tk, out)]
    return bad


def layer_problems(tk, workload, outputs) -> list[str]:
    """The corpus must reach the layer its workload exists for."""
    bad = []
    for index, out in enumerate(outputs):
        if isinstance(out, ErrorOut):
            continue
        if workload == "bridge" and not any(r.startswith("dispatch ") for r in out.trace):
            bad.append(f"bridge graph {index} never reached the dispatcher")
        if workload == "free-dense" and "freeness result=free" not in out.trace:
            bad.append(f"free-dense graph {index} is not pattern-free")
        if workload == "metrics-exact" and isinstance(
                tk.recognition.multipartite_decompose(out.g), tk.recognition.Multipartition):
            bad.append(f"metrics-exact graph {index} is complete multipartite")
    return bad


def cli_texts(tk, workload, groups) -> list[str]:
    """What ``toughham.cli.main`` prints for each group's graph6 file."""
    texts = []
    for index, group in enumerate(groups):
        path = OUT / workload / f"group-{index}.g6"
        path.write_text("\n".join(group.lines) + "\n", encoding="ascii")
        config = group.config()
        argv = (["metrics", "--input", str(path)] if group.command == "metrics"
                else ["run", "--t", config["t"], "--cap-oracle", str(config["cap_oracle"]),
                      "--input", str(path)])
        buf = io.StringIO()
        tk.cli.main(argv, out=buf)
        texts.append(buf.getvalue())
    return texts


def tallies(outputs) -> dict[str, int]:
    out = Counter()
    for o in outputs:
        if isinstance(o, ErrorOut):
            out["error"] += 1
        elif isinstance(o, RunOut):
            out[o.record.split()[1]] += 1
        else:
            out["metrics-line"] += 1
            out["limit-field"] += o.line.count("=limit")
    return dict(sorted(out.items()))


def source_digest() -> str:
    """Digest of the program and of the benchmark that drives it."""
    h = hashlib.sha256()
    for path in sorted((SRC / "toughham").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def reproducibility_problems(workload, seed, facts) -> list[str]:
    """Exact facts must match an earlier run with the same seed and sources."""
    path = OUT / workload / f"seed-{seed}.json"
    src = source_digest()
    old = {}
    if path.exists():
        old = json.loads(path.read_text())
        if old.get("src") != src:
            old = {}
    bad = [f"{key} differs from an earlier run with seed {seed}"
           for key, value in facts.items() if key in old and old[key] != value]
    if not bad:
        path.write_text(json.dumps(dict(old, src=src, **facts), sort_keys=True, indent=1))
    return bad


# --- tracing ---------------------------------------------------------------------

def install_wrappers(tr: spans.Tracer, tk):
    """Wrap each function on the name its caller looks up at call time."""
    P, M, H = tk.pipeline, tk.metrics, tk.hamilton

    def timed(owner, attr, name, **hooks):
        tr.patch(owner, attr, tr.timed(name, getattr(owner, attr), **hooks))

    def witness(counts, result):
        if result is not None:
            counts["recognition.find_induced.witnesses"] += 1

    def fallbacks(counts, result):
        counts["hamilton.insert_vertices.fallbacks"] += result[1]

    cap = ((M.OracleLimitExceeded, "hamilton.ham_cycle_forced.cap_hits"),)
    for owner in (P, tk.generators, tk.recognition):
        timed(owner, "find_induced", "recognition.find_induced", on_result=witness)
    for owner in (P, M):
        timed(owner, "multipartite_decompose", "recognition.multipartite_decompose")
        for attr in ("connectivity", "independence", "scattering"):
            timed(owner, attr, "metrics." + attr)
    for owner in (P, tk.certificates):
        tr.patch(owner, "induces_pattern",
                 tr.counted("recognition.induces_pattern", owner.induces_pattern))
    for owner in (P, H):
        timed(owner, "ham_cycle_forced", "hamilton.ham_cycle_forced", on_error=cap)
    timed(P, "insert_vertices", "hamilton.insert_vertices", on_result=fallbacks)
    for attr in ("dirac_cycle", "multipartite_ham_path"):
        timed(P, attr, "hamilton." + attr)
    timed(P, "k1t_matching", "matchings.k1t_matching")
    timed(P, "verify_tough", "metrics.verify_tough")
    for attr in ("toughness", "probe_tough"):
        timed(M, attr, "metrics." + attr)
    for attr in ("run_theorem", "min_degree_gate", "case1_decompose", "build_path_cover",
                 "case1_finish", "case2_run"):
        timed(P, attr, "pipeline." + attr)
    for attr in ("check_certificate", "certificate_to_record"):
        timed(tk.certificates, attr, "certificates." + attr)
    for attr in ("parse_graph6", "write_graph6"):
        timed(tk.graph6, attr, "graph6." + attr)
    for attr in ("random_in_class", "random_graph", "case1_synthetic", "relabel"):
        timed(tk.generators, attr, "generators." + attr)
    for attr in ("component_count", "components"):
        tr.patch(tk.graph.Graph, attr, tr.counted("graph." + attr, getattr(tk.graph.Graph, attr)))


def layer_values(self_s, counts, overhead, coverage) -> dict[str, float]:
    values = {}
    for name, _unit in LAYER_METRICS:
        base, kind = name.rsplit(".", 1)
        if name == "trace.overhead_ratio":
            values[name] = overhead
        elif name == "trace.coverage":
            values[name] = coverage
        elif kind == "self_s":
            values[name] = self_s.get(base, 0.0)
        elif kind == "witness_ratio":
            calls = counts[base + ".calls"]
            values[name] = counts[base + ".witnesses"] / calls if calls else 0.0
        else:
            values[name] = counts[name]
    return values


# --- the run -------------------------------------------------------------------

def configs_for(tk, groups):
    return [None if g.command == "metrics"
            else tk.certificates.RunConfig(t=g.t, cap_oracle=g.cap_oracle) for g in groups]


def write_corpus(workload, groups):
    with open(OUT / workload / "corpus.jsonl", "w", encoding="ascii") as fh:
        for group in groups:
            for line, params in zip(group.lines, group.params):
                fh.write(json.dumps({"graph6": line, "config": group.config(),
                                     "params": params}) + "\n")


class Untraced(NamedTuple):
    setups: list          # scaled set-up time per pass
    latencies: list       # per pass, the scaled latency of each request
    raw_s: list           # per pass, the measured (unscaled) time of its requests
    refs: list            # every reference sample of the run
    digests: list         # per pass
    failed: int
    inconclusive: int
    problems: list
    first: tuple          # (tk, groups, outputs, texts) of pass 0


def measure_untraced(workload, seed, seconds) -> Untraced:
    """Passes until the time is used.  Pass k is a fresh import, the build
    of its own corpus and one execution of each of its graphs, so neither
    program state nor a repeated input carries from one pass to the next,
    and the run's latencies come from graphs-per-pass times passes
    distinct graphs."""
    setups, latencies, raw_s, refs, digests, problems = [], [], [], [], [], []
    failed = inconclusive = 0
    first = None
    started = clock()
    for k in itertools.count():
        t0 = clock()
        tk, groups, setup = set_up(workload, seed, k)
        meter = speed.Meter()
        outputs = run_pass(tk, groups, configs_for(tk, groups), meter)
        latencies.append(meter.stop())
        setups.append(setup)
        raw_s.append(meter.raw_total)
        refs += meter.refs
        texts = render(tk, groups, outputs)
        digests.append(digest(groups, texts))
        failed += sum(out.failed for out in outputs)
        inconclusive += sum(out.inconclusive for out in outputs)
        problems += [f"pass {k}: {p}" for p in output_problems(tk, workload, outputs)]
        first = first or (tk, groups, outputs, texts)
        per_pass = clock() - t0
        if k + 1 >= MIN_PASSES and clock() - started + per_pass / 2 >= seconds:
            return Untraced(setups, latencies, raw_s, refs, digests, failed, inconclusive,
                            problems, first)


def measure_traced(workload, seed, seconds):
    """Alternate untraced and traced windows, each a fresh import, a set-up
    and one pass."""
    build = workloads.WORKLOADS[workload]
    seed = workloads.pass_seed(seed, 0)
    plain, traced, digests, reps, failed, first = [], [], [], [], 0, None
    started = clock()
    while True:
        tk = import_toughham()
        t0 = clock()
        groups = build(tk, seed)
        outputs = run_pass(tk, groups, configs_for(tk, groups))
        plain.append(clock() - t0)
        texts = render(tk, groups, outputs)
        digests.append(digest(groups, texts))
        failed += sum(out.failed for out in outputs)
        first = first or (tk, groups, outputs, texts)
        tk = import_toughham()
        tracer = spans.Tracer()
        with tracer.installed(lambda tr: install_wrappers(tr, tk)):
            t0 = clock()
            groups = build(tk, seed)
            outputs = run_pass(tk, groups, configs_for(tk, groups))
            traced.append(clock() - t0)
        digests.append(digest(groups, render(tk, groups, outputs)))
        failed += sum(out.failed for out in outputs)
        reps.append(tracer)
        if (len(reps) >= MIN_TRACED_PASSES
                and clock() - started + (statistics.mean(plain) + statistics.mean(traced)) / 2
                >= seconds):
            return plain, traced, digests, reps, failed, first


def quantile_ms(values, q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1] * 1000.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toughham" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'toughham'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)

    _tk, groups, _setup = set_up(args.workload, args.seed)   # pass 0, untimed warm-up
    if sum(len(g.lines) for g in groups) < MIN_GRAPHS:
        raise BenchError(f"the {args.workload} corpus has fewer than {MIN_GRAPHS} graphs")
    write_corpus(args.workload, groups)
    # on an import of its own, which doubles as the warm-up of the interpreter
    expected = cli_texts(import_toughham(), args.workload, groups)
    w = args.workload
    if args.trace:
        plain, traced, digests, reps, failed, first = measure_traced(w, args.seed, args.seconds)
    else:
        run = measure_untraced(w, args.seed, args.seconds)
        digests, failed, first = run.digests, run.failed, run.first
    tk, _groups, outputs, texts = first
    reference = digests[0]
    problems = [f"group {i} differs from toughham {g.command}"
                for i, (g, a, b) in enumerate(zip(groups, texts, expected)) if a != b]
    per_pass = len(outputs)
    facts = {"digest": reference, "tallies": tallies(outputs)}

    print(f"workload={w} seed={args.seed} trace={args.trace} graphs_per_pass={per_pass}"
          f" digest={reference}")
    print("tallies " + " ".join(f"{k}={v}" for k, v in facts["tallies"].items()))
    if args.trace:
        counts = [dict(tr.counts) for tr in reps]
        if any(c != counts[0] for c in counts):
            problems.append("call counts differ between traced passes")
        facts["counts"] = dict(sorted(counts[0].items()))
        self_runs = [spans.self_times(tr.spans) for tr in reps]
        names = set().union(*self_runs)
        self_s = {n: statistics.median(r.get(n, 0.0) for r in self_runs) for n in names}
        coverage = statistics.median(sum(r.values()) / wall
                                     for r, wall in zip(self_runs, traced))
        overhead = statistics.median(traced) / statistics.median(plain)
        metrics = layer_values(self_s, reps[0].counts, overhead, coverage)
        units = dict(LAYER_METRICS)
        attempted = 2 * per_pass * len(reps)
        problems += output_problems(tk, w, outputs)
        if any(d != reference for d in digests):
            problems.append("records differ between passes")
        with open(OUT / w / "spans.jsonl", "w", encoding="ascii") as fh:
            for span in reps[0].spans:
                fh.write(json.dumps(span) + "\n")
        print(f"traced_passes={len(reps)} spans_per_pass={len(reps[0].spans)}")
    else:
        passes = len(run.latencies)
        # every execution of every graph in the run, pooled
        pooled = [x for lat in run.latencies for x in lat]
        attempted = len(pooled)
        problems += run.problems
        facts.update((f"pass-{k}-digest", d) for k, d in enumerate(digests))
        p90 = quantile_ms(pooled, 9)
        metrics = {
            "setup_s": statistics.median(run.setups),
            "graphs_per_s": len(pooled) / sum(pooled),
            "latency_p50_ms": statistics.median(pooled) * 1000.0,
            "latency_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "graphs_per_s": "1/s", "latency_p50_ms": "ms",
                 "latency_p90_ms": "ms", "peak_rss_mb": "MB"}
        beyond = sum(1 for x in pooled if x * 1000.0 > p90)
        print(f"passes={passes} graphs={per_pass} samples={len(pooled)} beyond_p90={beyond}")
        print(f"raw: unscaled graphs_per_s {len(pooled) / sum(run.raw_s):.6g} 1/s,"
              f" reference sample median"
              f" {statistics.median(run.refs) * 1000.0:.6g} ms, nominal"
              f" {speed.REF_NOMINAL_S * 1000.0:.6g} ms, {len(run.refs)} samples")
        print(f"failed_share {failed / attempted:.6g} ratio")
        print(f"inconclusive_share {run.inconclusive / attempted:.6g} ratio")
    problems += reproducibility_problems(w, args.seed, facts)
    for name, value in metrics.items():
        print(f"{name} {value if isinstance(value, int) else format(value, '.6g')} {units[name]}")
    for problem in problems:
        print(f"problem: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
