"""The traced benchmark patches engine functions by name; this guards that
wiring without touching ``perfbench/``."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_install_wrappers_finds_and_restores_every_name(monkeypatch):
    run = _load_harness(monkeypatch)
    tk = SimpleNamespace(**{m: importlib.import_module("toughham." + m) for m in run.MODULES})
    owners = [getattr(tk, m) for m in run.MODULES] + [tk.graph.Graph]
    before = [dict(vars(owner)) for owner in owners]
    with run.spans.Tracer().installed(lambda tr: run.install_wrappers(tr, tk)):
        during = [dict(vars(owner)) for owner in owners]
    assert tk.pipeline.connectivity is not during[run.MODULES.index("pipeline")]["connectivity"]
    assert [dict(vars(owner)) for owner in owners] == before


def test_every_workload_runs_pass_zero_without_errors(monkeypatch):
    # run_pass turns an exception into a failed request, so a name the
    # harness calls and the program no longer has shows up only here
    run = _load_harness(monkeypatch)
    tk = SimpleNamespace(**{m: importlib.import_module("toughham." + m) for m in run.MODULES})
    for workload, build in run.workloads.WORKLOADS.items():
        groups = build(tk, run.workloads.pass_seed(7, 0))
        outputs = run.run_pass(tk, groups, run.configs_for(tk, groups))
        errors = [out.error for out in outputs if isinstance(out, run.ErrorOut)]
        assert errors == [], (workload, errors[:3])
        assert run.output_problems(tk, workload, outputs) == [], workload


def test_traced_bridge_pass_reaches_every_stage(monkeypatch):
    # the stages take the run's trace as a required argument; a traced
    # pass calls them through the harness's wrappers, so a signature the
    # harness cannot call shows up as a failed request or a zero count
    run = _load_harness(monkeypatch)
    tk = SimpleNamespace(**{m: importlib.import_module("toughham." + m) for m in run.MODULES})
    groups = run.workloads.WORKLOADS["bridge"](tk, run.workloads.pass_seed(7, 0))
    tracer = run.spans.Tracer()
    with tracer.installed(lambda tr: run.install_wrappers(tr, tk)):
        outputs = run.run_pass(tk, groups, run.configs_for(tk, groups))
    errors = [out.error for out in outputs if isinstance(out, run.ErrorOut)]
    assert errors == [], errors[:3]
    stages = ["pipeline." + name for name in ("min_degree_gate", "case1_decompose",
                                              "build_path_cover", "case1_finish",
                                              "case2_run")]
    for name in stages + ["hamilton.multipartite_ham_path"]:
        assert tracer.counts[name + ".calls"] > 0, name


def test_insertion_hook_reads_the_rotation_count(monkeypatch):
    # no workload inserts a vertex, so a return shape the harness's
    # fallbacks hook cannot read would go unseen without this call
    run = _load_harness(monkeypatch)
    tk = SimpleNamespace(**{m: importlib.import_module("toughham." + m) for m in run.MODULES})
    g = tk.graph.Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)]
                                  + [(6, 0), (6, 2), (6, 4), (1, 3), (1, 5), (3, 5)])
    tracer = run.spans.Tracer()
    with tracer.installed(lambda tr: run.install_wrappers(tr, tk)):
        grown, _ = tk.pipeline.insert_vertices(g, tk.hamilton.CycleCert(tuple(range(6))),
                                               1 << 6, Fraction(1))
    assert tk.hamilton.validate_cycle(g, grown)
    assert tracer.counts["hamilton.insert_vertices.calls"] == 1
    assert tracer.counts["hamilton.insert_vertices.fallbacks"] == 1
