import ast
import io
import os
import subprocess
import sys
from pathlib import Path

from toughham.cli import main
from toughham.generators import complete_split_join
from toughham.graph import Graph
from toughham.graph6 import write_graph6


UNREADABLE_T = ("check index=0 result=fail"
                " reason=unreadable-graph-record:zero-denominator-in-'1/0'\n")

# graph 0's cert is not a cycle of K3; the cert after the error record is no
# graph's
CERT_AFTER_ERROR = ("graph index=0 n=3 t=11/1\n"
                    "cert kind=hamilton-cycle -- 0 1\n"
                    "error index=1 n=3 kind=input reason=x graph6=Bw\n"
                    "cert kind=hamilton-cycle -- 0 1 2\n")


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def write_inputs(tmp_path, graphs, name="in.g6"):
    path = tmp_path / name
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    return str(path)


def test_run_and_check_round_trip(tmp_path):
    graphs = [complete_split_join(22, 2), Graph.cycle(5),
              Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])]
    inp = write_inputs(tmp_path, graphs)
    cert_path = str(tmp_path / "certs.txt")
    code, _ = run_cli(["run", "--t", "11", "--input", inp, "--out", cert_path])
    assert code == 0
    code, report = run_cli(["check", "--graph", inp, "--cert", cert_path])
    assert code == 0
    assert report.count("result=pass") == 3


def test_check_flags_corrupted_cycle(tmp_path):
    inp = write_inputs(tmp_path, [Graph.cycle(5)])
    cert_path = tmp_path / "certs.txt"
    cert_path.write_text("graph index=0 n=5 t=11/1\n"
                         "cert kind=hamilton-cycle -- 0 2 4 1 3\n")
    code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
    assert code == 1
    assert "edge-0-2-missing" in report


def test_check_out_of_range_ids_fail_and_go_on(tmp_path):
    inp = write_inputs(tmp_path, [Graph.cycle(5), Graph.cycle(5)])
    cert_path = tmp_path / "certs.txt"
    cert_path.write_text("graph index=0 n=5 t=11/1\n"
                         "cert kind=hamilton-cycle -- 0 1 2 3 9\n"
                         "graph index=1 n=5 t=11/1\n"
                         "cert kind=hamilton-cycle -- 0 1 2 3 4\n")
    code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
    assert code == 1
    assert "check index=0 result=fail" in report
    assert "check index=1 result=pass" in report


def test_check_unreadable_certificates_fail_and_go_on(tmp_path):
    # a negative id, a record missing its pattern field, and an id no mask
    # of a graph can hold (a mask of it would need 1.25 EB)
    inp = write_inputs(tmp_path, [Graph.cycle(5)] * 4)
    cert_path = tmp_path / "certs.txt"
    cert_path.write_text("graph index=0 n=5 t=11/1\n"
                         "cert kind=toughness-witness components=2 ratio=1/2 -- -1\n"
                         "graph index=1 n=5 t=11/1\n"
                         "cert kind=forbidden-witness -- 0 1 2 3 4\n"
                         "graph index=2 n=5 t=11/1\n"
                         "cert kind=toughness-witness components=2 ratio=1/2"
                         " -- 10000000000000000000\n"
                         "graph index=3 n=5 t=11/1\n"
                         "cert kind=hamilton-cycle -- 0 1 2 3 4\n")
    code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
    assert code == 1
    assert "check index=0 result=fail reason=unreadable-certificate" in report
    assert "check index=1 result=fail" in report
    assert "check index=2 result=fail reason=unreadable-certificate" in report
    assert "check index=3 result=pass" in report


def test_check_ids_that_are_not_integers_fail_one_graph(tmp_path):
    # a cert whose ids do not parse, then trace lines that do not parse
    inp = write_inputs(tmp_path, [Graph.cycle(5)] * 3)
    cert_path = tmp_path / "certs.txt"
    cert_path.write_text("graph index=0 n=5 t=11/1\n"
                         "cert kind=hamilton-cycle -- 0 1 x\n"
                         "graph index=1 n=5 t=11/1\n"
                         "freeness result=witness -- 0 y\n"
                         "stray-token\n"
                         "cert kind=hamilton-cycle -- 0 1 2 3 4\n"
                         "graph index=2 n=5 t=11/1\n"
                         "cert kind=hamilton-cycle -- 0 1 2 3 4\n")
    code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
    assert code == 1
    assert "check index=0 result=fail reason=unreadable-certificate" in report
    assert "check index=1 result=pass" in report
    assert "check index=2 result=pass" in report


def test_check_unreadable_graph_records_fail_and_go_on(tmp_path):
    # a t that does not parse fails its graph; after an index that does not
    # parse, records belong to no graph until the next graph record
    inp = write_inputs(tmp_path, [Graph.cycle(5)] * 3)
    cert_path = tmp_path / "certs.txt"
    cycle = "cert kind=hamilton-cycle -- 0 1 2 3 4\n"
    cert_path.write_text("graph index=0 n=5 t=1/0\n" + cycle
                         + "graph index=zero n=5 t=11/1\n" + cycle
                         + "cert kind=hamilton-cycle -- 0 1 2 3 4 5\n"
                         + "graph index=2 n=5 t=11/1\n" + cycle)
    code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
    assert code == 1
    assert report.splitlines() == [
        UNREADABLE_T.strip(),
        "check index=1 result=missing",
        "check index=2 result=pass reason=hamilton-cycle-verified",
    ]


def test_check_malformed_fields_fail_only_their_graph(tmp_path):
    # a graph or error record with a field that is not key=value fails the
    # graph its index names; the batch goes on to the next graph
    inp = write_inputs(tmp_path, [Graph.complete(3)] * 3)
    cert_path = tmp_path / "certs.txt"
    cycle = "cert kind=hamilton-cycle -- 0 1 2\n"
    cert_path.write_text("graph index=0 n=3 t=11/1 junk\n" + cycle
                         + "graph index=1 n=3 t=11/1\n" + cycle
                         + "error index=2 kind=input reason=x junk\n")
    code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
    assert code == 1
    lines = report.splitlines()
    assert lines[0].startswith("check index=0 result=fail"
                               " reason=unreadable-graph-record:malformed-field-'junk'")
    assert lines[1] == "check index=1 result=pass reason=hamilton-cycle-verified"
    assert lines[2].startswith("check index=2 result=fail"
                               " reason=unreadable-error-record:malformed-field-'junk'")
    assert len(lines) == 3


def test_check_reads_each_graph_block_alone(tmp_path):
    # a graph or error record owns the cert records up to the next one: a
    # cert after an error record counts for no graph, and a second cert
    # fails its graph instead of replacing the first
    inp = write_inputs(tmp_path, [Graph.complete(3)] * 2)
    cert_path = tmp_path / "certs.txt"
    cert_path.write_text(CERT_AFTER_ERROR)
    code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
    assert (code, report.splitlines()) == (1, [
        "check index=0 result=fail reason=cycle-is-not-a-permutation-of-0..2",
        "check index=1 result=fail reason=run-error:x"])
    cycle = "cert kind=hamilton-cycle -- 0 1 2\n"
    cert_path.write_text("graph index=0 n=3 t=11/1\n"
                         "cert kind=hamilton-cycle -- 0 1\n" + cycle
                         + "graph index=1 n=3 t=11/1\n" + cycle)
    code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
    assert (code, report.splitlines()) == (1, [
        "check index=0 result=fail reason=more-than-one-certificate",
        "check index=1 result=pass reason=hamilton-cycle-verified"])


def test_run_and_check_round_trip_a_mixed_batch(tmp_path):
    # an unreadable line, K2 (rejected), C5 past the oracle cap with no
    # witness the salvage probe finds, and K4: run gives error, error,
    # oracle-limit and cycle
    inp = tmp_path / "in.g6"
    inp.write_text(f"C~~\n{write_graph6(Graph.complete(2))}\n"
                   f"{write_graph6(Graph.cycle(5))}\n{write_graph6(Graph.complete(4))}\n")
    cert_path = str(tmp_path / "certs.txt")
    code, _ = run_cli(["run", "--t", "1", "--cap-oracle", "4", "--input", str(inp),
                       "--out", cert_path])
    assert code == 4
    code, report = run_cli(["check", "--graph", str(inp), "--cert", cert_path])
    assert code == 1
    assert report.splitlines() == [
        "check index=0 result=fail "
        "reason=unreadable-graph:-expected-1-adjacency-bytes-for-n=4,-got-2-(byte-1)",
        "check index=1 result=fail "
        "reason=run-error:certification-needs-at-least-three-vertices",
        "check index=2 result=fail "
        "reason=inconclusive:-oracle-limit-at-gate.ham-cycle-forced:cap",
        "check index=3 result=pass reason=hamilton-cycle-verified"]


def test_run_without_cap_flags_uses_the_default_config(tmp_path):
    from fractions import Fraction

    from toughham.certificates import RunConfig
    from toughham.pipeline import run_theorem

    g = Graph.cycle(5)
    code, out = run_cli(["run", "--t", "3/2", "--input", write_inputs(tmp_path, [g])])
    assert code == 0
    _, trace = run_theorem(g, RunConfig(Fraction(3, 2)))
    config = [line for line in trace if line.startswith("config ")]
    assert len(config) == 1 and config[0] in out.splitlines()


def test_check_missing_certificate(tmp_path):
    inp = write_inputs(tmp_path, [Graph.cycle(5), Graph.cycle(6)])
    cert_path = tmp_path / "certs.txt"
    cert_path.write_text("graph index=0 n=5 t=11/1\n"
                         "cert kind=hamilton-cycle -- 0 1 2 3 4\n")
    code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
    assert code == 1
    assert "result=missing" in report


def test_metrics_line_format(tmp_path):
    inp = write_inputs(tmp_path, [Graph.complete(5)])
    code, out = run_cli(["metrics", "--input", inp])
    assert code == 0
    assert out == "tau=inf kappa=4 alpha=1 delta=4 s=inf\n"


def test_metrics_noncomplete(tmp_path):
    inp = write_inputs(tmp_path, [Graph.cycle(6)])
    code, out = run_cli(["metrics", "--input", inp])
    assert code == 0
    assert out == "tau=1/1 kappa=2 alpha=3 delta=2 s=0\n"


def test_metrics_reports_caps(tmp_path):
    # noncomplete, not multipartite, 27 vertices: exact toughness and
    # scattering exceed the default enumeration cap
    from toughham.generators import case1_synthetic
    inp = write_inputs(tmp_path, [case1_synthetic([2, 1, 2], 6, [2] * 8)])
    code, out = run_cli(["metrics", "--input", inp])
    assert code == 3
    assert "tau=limit" in out and "s=limit" in out and "kappa=6" in out


def test_usage_errors_exit_two(tmp_path, capsys):
    code, _ = run_cli(["run", "--input", str(tmp_path / "nope.g6")])
    assert code == 2
    code, _ = run_cli(["frobnicate"])
    assert code == 2
    code, _ = run_cli(["metrics", "--input", str(tmp_path / "nope.g6")])
    assert code == 2
    # a zero denominator, wherever a t is read
    inp = write_inputs(tmp_path, [Graph.complete(3)])
    code, _ = run_cli(["run", "--t", "1/0", "--input", inp])
    assert code == 2
    code, _ = run_cli(["survey", "--t-grid", "11,1/0", "--n", "5", "--count", "1"])
    assert code == 2
    # but a t in a certificate file is data: it fails its graph alone
    cert = tmp_path / "certs.txt"
    cert.write_text("graph index=0 n=3 t=1/0\n")
    code, out = run_cli(["check", "--graph", inp, "--cert", str(cert)])
    assert (code, out) == (1, UNREADABLE_T)
    # survey builds graphs from --n alone
    code, _ = run_cli(["survey", "--t-grid", "11", "--gen", "complete_multipartite",
                       "--n", "5", "--count", "1"])
    assert code == 2
    # survey sizes must be positive: no empty table
    for n, count in (("5", "0"), ("5", "-1"), ("0", "1")):
        capsys.readouterr()
        code, out = run_cli(["survey", "--t-grid", "11", "--n", n, "--count", count])
        assert (code, out) == (2, ""), (n, count)
        err = capsys.readouterr().err
        assert "must be positive" in err and "Traceback" not in err, (n, count)


def test_run_batch_goes_on_past_an_invalid_graph(tmp_path):
    k3, k2, c5 = Graph.complete(3), Graph.complete(2), Graph.cycle(5)
    code, out = run_cli(["run", "--input", write_inputs(tmp_path, [k3, k2, c5])])
    assert code == 4
    lines = out.splitlines()
    assert ("error index=1 n=2 kind=input "
            "reason=certification-needs-at-least-three-vertices graph6=A_ t=11/1 "
            "cap_oracle=32") in lines
    # the valid graphs' records are those of a batch without the bad graph
    code, clean = run_cli(["run", "--input", write_inputs(tmp_path, [k3, c5], "clean.g6")])
    assert code == 0
    kept = [line.replace("graph index=2 ", "graph index=1 ") for line in lines
            if not line.startswith("error ")]
    assert kept == clean.splitlines()


def test_run_and_check_go_on_past_an_unreadable_line(tmp_path):
    k3, c5 = Graph.complete(3), Graph.cycle(5)
    inp = tmp_path / "in.g6"
    inp.write_text(f"{write_graph6(k3)}\nC~~\n{write_graph6(c5)}\n")
    cert_path = str(tmp_path / "certs.txt")
    code, _ = run_cli(["run", "--input", str(inp), "--out", cert_path])
    assert code == 4
    lines = (tmp_path / "certs.txt").read_text().splitlines()
    bad = [line for line in lines if line.startswith("error ")]
    assert bad == ["error index=1 kind=input "
                   "reason=expected-1-adjacency-bytes-for-n=4,-got-2-(byte-1)"]
    # the valid graphs' records are those of a batch without the bad line
    code, clean = run_cli(["run", "--input", write_inputs(tmp_path, [k3, c5], "clean.g6")])
    assert code == 0
    kept = [line.replace("graph index=2 ", "graph index=1 ") for line in lines
            if not line.startswith("error ")]
    assert kept == clean.splitlines()
    code, report = run_cli(["check", "--graph", str(inp), "--cert", cert_path])
    assert code == 1
    assert report.splitlines() == [
        "check index=0 result=pass reason=hamilton-cycle-verified",
        "check index=1 result=fail "
        "reason=unreadable-graph:-expected-1-adjacency-bytes-for-n=4,-got-2-(byte-1)",
        "check index=2 result=pass reason=hamilton-cycle-verified"]
    code, out = run_cli(["metrics", "--input", str(inp)])
    assert code == 4
    assert out.splitlines()[1] == bad[0]


def test_metrics_goes_on_past_an_unreadable_line(tmp_path):
    # the error record takes the bad line's place; the other lines are those
    # of a batch without it, and exit 4 takes precedence over the cap's 3
    from toughham.generators import case1_synthetic

    c6, capped = Graph.cycle(6), case1_synthetic([2, 1, 2], 6, [2] * 8)
    inp = tmp_path / "in.g6"
    inp.write_text(f"{write_graph6(c6)}\nC~~\n{write_graph6(capped)}\n")
    code, out = run_cli(["metrics", "--input", str(inp)])
    assert code == 4
    code, clean = run_cli(["metrics", "--input",
                           write_inputs(tmp_path, [c6, capped], "clean.g6")])
    assert code == 3
    lines = out.splitlines()
    assert lines[1] == ("error index=1 kind=input "
                        "reason=expected-1-adjacency-bytes-for-n=4,-got-2-(byte-1)")
    assert [lines[0], lines[2]] == clean.splitlines()


def test_a_non_ascii_byte_fails_only_its_graph6_line(tmp_path):
    k3 = write_graph6(Graph.complete(3))
    inp = tmp_path / "in.g6"
    inp.write_bytes(f"{k3}\n".encode() + "\u00e9\n".encode() + f"{k3}\n".encode())
    bad = "error index=1 kind=input reason=size-byte-out-of-range-(byte-0)"
    cert_path = str(tmp_path / "certs.txt")
    code, _ = run_cli(["run", "--t", "11", "--input", str(inp), "--out", cert_path])
    assert code == 4
    lines = (tmp_path / "certs.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("error ")] == [bad]
    code, clean = run_cli(["run", "--input", write_inputs(tmp_path, [Graph.complete(3)] * 2,
                                                          "clean.g6")])
    assert code == 0
    kept = [line.replace("graph index=2 ", "graph index=1 ") for line in lines
            if not line.startswith("error ")]
    assert kept == clean.splitlines()
    code, report = run_cli(["check", "--graph", str(inp), "--cert", cert_path])
    assert code == 1
    assert report.splitlines() == [
        "check index=0 result=pass reason=hamilton-cycle-verified",
        "check index=1 result=fail reason=unreadable-graph:-size-byte-out-of-range-(byte-0)",
        "check index=2 result=pass reason=hamilton-cycle-verified"]
    code, out = run_cli(["metrics", "--input", str(inp)])
    assert code == 4
    assert out.splitlines() == ["tau=inf kappa=2 alpha=1 delta=2 s=inf", bad,
                                "tau=inf kappa=2 alpha=1 delta=2 s=inf"]


def test_a_line_past_the_vertex_limit_fails_only_itself(tmp_path):
    # 600 vertices and every adjacency byte: the size field alone rejects it
    inp = tmp_path / "in.g6"
    inp.write_text("Bw\n~?HW" + "?" * (600 * 599 // 2 // 6) + "\nBw\n")
    bad = "error index=1 kind=input reason=vertex-count-600-outside-0..512-(byte-0)"
    cert_path = str(tmp_path / "certs.txt")
    code, _ = run_cli(["run", "--input", str(inp), "--out", cert_path])
    assert code == 4
    lines = (tmp_path / "certs.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("error ")] == [bad]
    assert [line.split()[1] for line in lines if line.startswith("graph ")] == [
        "index=0", "index=2"]
    code, report = run_cli(["check", "--graph", str(inp), "--cert", cert_path])
    assert code == 1
    assert report.splitlines() == [
        "check index=0 result=pass reason=hamilton-cycle-verified",
        "check index=1 result=fail "
        "reason=unreadable-graph:-vertex-count-600-outside-0..512-(byte-0)",
        "check index=2 result=pass reason=hamilton-cycle-verified"]
    code, out = run_cli(["metrics", "--input", str(inp)])
    assert code == 4
    assert out.splitlines() == ["tau=inf kappa=2 alpha=1 delta=2 s=inf", bad,
                                "tau=inf kappa=2 alpha=1 delta=2 s=inf"]


def test_check_a_non_ascii_byte_fails_only_the_record_that_reads_it(tmp_path):
    # in a trace line it is never read; in a cert record it fails that
    # graph; in an error record's reason it is reported escaped
    inp = write_inputs(tmp_path, [Graph.complete(3)] * 3)
    cert_path = tmp_path / "certs.txt"
    code, _ = run_cli(["run", "--input", inp, "--out", str(cert_path)])
    assert code == 0
    graphs = cert_path.read_bytes().decode().split("graph ")[1:]
    e = "\u00e9".encode()
    first = ("graph " + graphs[0]).encode().replace(b"freeness result=free",
                                                     b"freeness result=free note=" + e)
    second = ("graph " + graphs[1]).encode().replace(b"0 1 2\n", b"0 1 2 " + e + b"\n")
    cert_path.write_bytes(first + second + b"error index=2 kind=input reason=caf" + e + b"\n")
    code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
    assert code == 1
    assert report.splitlines() == [
        "check index=0 result=pass reason=hamilton-cycle-verified",
        "check index=1 result=fail reason=unreadable-certificate:-invalid-literal-for-int()"
        "-with-base-10:-'\\udcc3\\udca9'",
        "check index=2 result=fail reason=run-error:caf\\udcc3\\udca9"]


def test_check_rejects_records_without_an_index(tmp_path, capsys):
    inp = write_inputs(tmp_path, [Graph.complete(3)])
    cert_path = tmp_path / "certs.txt"
    for record in ("graph n=3", "error kind=input reason=bad"):
        cert_path.write_text(f"{record}\ncert kind=hamilton-cycle -- 0 1 2\n")
        code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
        assert code == 2 and report == ""
        name = record.split()[0]
        assert capsys.readouterr().err == f"error: {name} record without an index\n"


def test_module_entry_point_exit_code(tmp_path):
    # python -m toughham from a checkout, with the exit code the shell sees
    inp = tmp_path / "in.g6"
    inp.write_text(f"{write_graph6(Graph.cycle(6))}\nC~~\n")
    k3 = write_inputs(tmp_path, [Graph.complete(3)], "k3.g6")
    cert = tmp_path / "certs.txt"
    cert.write_text("graph index=0 n=3 t=1/0\n")
    k3k3 = write_inputs(tmp_path, [Graph.complete(3)] * 2, "k3k3.g6")
    after_error = tmp_path / "after-error.txt"
    after_error.write_text(CERT_AFTER_ERROR)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    # (arguments, exit code, first line of stdout)
    cases = [
        (["metrics", "--input", str(inp)], 4, ["tau=1/1 kappa=2 alpha=3 delta=2 s=0"]),
        (["check", "--graph", k3, "--cert", str(cert)], 1, UNREADABLE_T.splitlines()),
        (["check", "--graph", k3k3, "--cert", str(after_error)], 1,
         ["check index=0 result=fail reason=cycle-is-not-a-permutation-of-0..2"]),
        (["run", "--t", "1/0", "--input", k3], 2, []),
        (["survey", "--t-grid", "11", "--gen", "case1_synthetic", "--n", "5",
          "--count", "1"], 2, []),
    ]
    for argv, code, first in cases:
        done = subprocess.run([sys.executable, "-m", "toughham", *argv],
                              capture_output=True, text=True, env=env, check=False)
        assert done.returncode == code, argv
        assert "Traceback" not in done.stderr, argv
        assert done.stdout.splitlines()[:1] == first, argv


def test_check_fails_a_graph_that_run_rejected(tmp_path):
    inp = write_inputs(tmp_path, [Graph.complete(3), Graph.complete(2), Graph.cycle(5)])
    cert_path = str(tmp_path / "certs.txt")
    code, _ = run_cli(["run", "--t", "3/2", "--cap-oracle", "20", "--input", inp,
                       "--out", cert_path])
    assert code == 4
    # the error record carries what reruns the graph: its graph6 line and the config
    errors = [line for line in (tmp_path / "certs.txt").read_text().splitlines()
              if line.startswith("error ")]
    assert errors == ["error index=1 n=2 kind=input "
                      "reason=certification-needs-at-least-three-vertices graph6=A_ "
                      "t=3/2 cap_oracle=20"]
    code, report = run_cli(["check", "--graph", inp, "--cert", cert_path])
    assert code == 1
    assert report.splitlines()[1] == ("check index=1 result=fail "
                                      "reason=run-error:certification-needs-at-least-three-vertices")
    assert report.count("result=pass") == 2


def test_run_internal_error_record_beats_oracle_limit(tmp_path, monkeypatch):
    from toughham import cli
    from toughham.certificates import OracleLimit
    from toughham.pipeline import PipelineInternalError

    def fake(g, cfg):
        if g.n == 4:
            raise PipelineInternalError("unreachable state at test")
        return OracleLimit("gate.ham-cycle-forced:cap"), []

    monkeypatch.setattr(cli, "run_theorem", fake)
    inp = write_inputs(tmp_path, [Graph.cycle(5), Graph.cycle(4), Graph.cycle(6)])
    code, out = run_cli(["run", "--input", inp])
    assert code == 4
    assert out.count("cert kind=oracle-limit") == 2
    assert ("error index=1 n=4 kind=internal reason=unreachable-state-at-test "
            "graph6=Cl t=11/1 cap_oracle=32") in out.splitlines()


def test_run_rejects_caps_that_are_not_positive(tmp_path):
    inp = write_inputs(tmp_path, [Graph.cycle(5)])
    for value in ("0", "-3"):
        code, out = run_cli(["run", "--input", inp, "--cap-oracle", value])
        assert code == 2 and out == "", value
    code, _ = run_cli(["run", "--input", inp, "--cap-oracle", "1"])
    assert code != 2
    # the subset cap is a constant of the solvers, not a flag
    code, out = run_cli(["run", "--input", inp, "--cap-toughness", "24"])
    assert code == 2 and out == ""


def test_oracle_limit_exit_code(tmp_path):
    # C5 at t = 1 passes the gate's degree threshold, is too large for an
    # oracle cap of 4, and no probed cutset breaks 1-toughness: inconclusive
    inp = write_inputs(tmp_path, [Graph.cycle(5)])
    cert_path = str(tmp_path / "certs.txt")
    code, _ = run_cli(["run", "--t", "1", "--cap-oracle", "4", "--input", inp,
                       "--out", cert_path])
    assert code == 3
    assert ("cert kind=oracle-limit stage=gate.ham-cycle-forced:cap"
            in (tmp_path / "certs.txt").read_text().splitlines())


def test_a_gate_cap_hit_is_salvaged_into_a_checked_witness(tmp_path):
    # K30,10 at t = 11 is too large for the default oracle cap; its first
    # open neighbourhood cuts it into 30 pieces with 10 vertices
    inp = write_inputs(tmp_path, [Graph.complete_multipartite([30, 10])])
    cert_path = str(tmp_path / "certs.txt")
    code, _ = run_cli(["run", "--input", inp, "--out", cert_path])
    assert code == 0
    lines = (tmp_path / "certs.txt").read_text().splitlines()
    assert "salvage ratio=1/3 stage=gate.ham-cycle-forced:cap" in lines
    assert lines[-1].startswith("cert kind=toughness-witness components=30 ratio=1/3 ")
    code, report = run_cli(["check", "--graph", inp, "--cert", cert_path])
    assert (code, report) == (0, "check index=0 result=pass"
                                 " reason=toughness-violated-at-ratio-1/3\n")


def test_check_fails_an_index_named_by_two_blocks(tmp_path):
    # the second block for index 0 would pass on its own; neither may
    # replace the other
    inp = write_inputs(tmp_path, [Graph.complete(3)] * 2)
    cert_path = tmp_path / "certs.txt"
    cycle = "cert kind=hamilton-cycle -- 0 1 2\n"
    cert_path.write_text("graph index=0 n=3 t=11/1\n"
                         "cert kind=hamilton-cycle -- 0 1\n"
                         "graph index=0 n=3 t=11/1\n" + cycle
                         + "graph index=1 n=3 t=11/1\n" + cycle)
    code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
    assert (code, report.splitlines()) == (1, [
        "check index=0 result=fail reason=duplicate-index",
        "check index=1 result=pass reason=hamilton-cycle-verified"])


def test_check_fails_only_the_graph_whose_t_is_not_positive(tmp_path):
    inp = write_inputs(tmp_path, [Graph.complete(3)] * 2)
    cert_path = tmp_path / "certs.txt"
    cycle = "cert kind=hamilton-cycle -- 0 1 2\n"
    for t in ("0", "-1/2"):
        cert_path.write_text(f"graph index=0 n=3 t={t}\n" + cycle
                             + "graph index=1 n=3 t=11/1\n" + cycle)
        code, report = run_cli(["check", "--graph", inp, "--cert", str(cert_path)])
        assert (code, report.splitlines()) == (1, [
            "check index=0 result=fail reason=unreadable-graph-record:t-must-be-positive",
            "check index=1 result=pass reason=hamilton-cycle-verified"]), t


def test_readme_command_lines_parse():
    # every toughham line of the README's command-line block, continuation
    # lines joined, is accepted by the parser: a removed flag cannot stay
    # documented
    import shlex

    from toughham.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("toughham ")]
    assert len(commands) == 4
    for argv in commands:
        build_parser().parse_args(argv)


def test_survey_is_deterministic():
    args = ["survey", "--t-grid", "9/4,5,8,11", "--gen", "random_in_class",
            "--n", "8", "--count", "12", "--seed", "3"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("survey t=") == 4


SURVEY_PINS = {
    "random_in_class": [
        "survey t=1/1 graphs=5 forbidden-witness=0 hamilton-cycle=0 oracle-limit=3"
        " toughness-witness=2",
        "survey t=11/1 graphs=5 forbidden-witness=0 hamilton-cycle=3 oracle-limit=0"
        " toughness-witness=2",
    ],
    "random": [
        "survey t=1/1 graphs=5 forbidden-witness=1 hamilton-cycle=0 oracle-limit=2"
        " toughness-witness=2",
        "survey t=11/1 graphs=5 forbidden-witness=1 hamilton-cycle=2 oracle-limit=0"
        " toughness-witness=2",
    ],
    "complete": [
        "survey t=1/1 graphs=5 forbidden-witness=0 hamilton-cycle=5 oracle-limit=0"
        " toughness-witness=0",
        "survey t=11/1 graphs=5 forbidden-witness=0 hamilton-cycle=5 oracle-limit=0"
        " toughness-witness=0",
    ],
}


def test_survey_output_is_pinned_for_every_gen():
    for gen, lines in SURVEY_PINS.items():
        code, out = run_cli(["survey", "--t-grid", "1,11", "--gen", gen, "--n", "7",
                             "--count", "5", "--seed", "2"])
        assert (code, out.splitlines()) == (0, lines), gen


def test_fresh_import_generates_no_code():
    # a fresh import compiles every module unless bytecode is cached, and a
    # dataclass would add the code its decorator writes and compiles
    src = Path(__file__).resolve().parents[1] / "src"
    modules = sorted(p.stem for p in (src / "toughham").glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    code = "".join(f"import toughham.{m}\n" for m in modules)
    code += "import sys\nprint(sorted(m for m in sys.modules if m.startswith('toughham.')))\n"
    code += "print('dataclasses' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    loaded, dataclasses_loaded = done.stdout.splitlines()
    assert loaded == repr([f"toughham.{m}" for m in modules])
    assert dataclasses_loaded == "False"


# bound only so that perfbench/run.py's install_wrappers can patch them by name
HARNESS_NAMES = {("generators", "find_induced"), ("metrics", "multipartite_decompose"),
                 ("pipeline", "induces_pattern"), ("pipeline", "scattering")}


def test_every_module_level_import_is_used():
    src = Path(__file__).resolve().parents[1] / "src" / "toughham"
    unused = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, exported = set(), set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif (isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                exported |= set(ast.literal_eval(node.value))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used - exported}
    assert unused == HARNESS_NAMES
