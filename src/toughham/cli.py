"""Command-line surface: batch runs, certificate checking, metrics, surveys.

Machine-parsable line records first, human-readable second.  Exit codes:
0 success, 1 check failure, 2 usage error, 3 oracle limit encountered,
4 some graph of a ``run`` or ``metrics`` batch could not be handled (it
gets an ``error`` record and the batch goes on); 4 takes precedence over 3.

A malformed graph6 line ends no batch: ``run`` and ``metrics`` give it an
``error`` record, ``check`` fails it (``unreadable-graph``).  A graph that
``run`` cannot certify gets an ``error`` record with its graph6 line, ``t``
and ``cap_oracle``, enough to rerun it.  ``check`` reads the certificate
file in blocks (see ``_blocks``) and no trace line; a byte past ASCII fails
only the graph6 line or record that holds it.
"""

from __future__ import annotations

import argparse
import sys

from . import metrics
from .certificates import (KINDS, OracleLimit, RunConfig, certificate_from_record,
                           certificate_kind, certificate_to_record, check_certificate,
                           fmt_q, parse_q, parse_record, record_line)
from .generators import GenerationError, random_graph, random_in_class
from .graph import Graph, GraphError
from .graph6 import Graph6Error, read_graph6_lines, write_graph6
from .hamilton import DEFAULT_ORACLE_CAP
from .pipeline import PipelineInternalError, run_theorem

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ORACLE_LIMIT = 3
EXIT_GRAPH_ERROR = 4

# survey's graph families by --gen name, each built from n and a seed
SURVEY_GENS = {
    "random_in_class": lambda n, seed: random_in_class(n, 0.5, seed),
    "random": lambda n, seed: random_graph(n, 0.5, seed),
    "complete": lambda n, seed: Graph.complete(n),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _error_record(index: int, exc: Exception, g: Graph | Graph6Error, config=()) -> str:
    """The ``error`` record of a graph that cannot be certified; a line that
    does not parse (``g`` is its Graph6Error) has no ``n`` and no ``graph6``.
    A known stage follows an internal ``kind``; the run's ``config`` comes last."""
    internal = isinstance(exc, PipelineInternalError)
    kind = [("kind", "internal" if internal else "input")]
    if internal and exc.stage:
        kind.append(("stage", exc.stage))
    reason = ("reason", str(exc).replace(" ", "-"))
    if not isinstance(g, Graph):
        return record_line("error", [("index", index), *kind, reason])
    return record_line("error", [("index", index), ("n", g.n), *kind, reason,
                                 ("graph6", write_graph6(g)), *config])


def _batch(path: str, records, emit, config=()) -> int:
    """Hand ``emit`` the records of each graph of a graph6 file, in order,
    and return the batch's exit code.

    ``records(index, g)`` gives a graph's records and whether it hit an
    oracle limit; a line that does not parse, or a graph the engine
    rejects, gets one ``error`` record instead, which ends in the ``config``
    fields when the line parsed, and the batch goes on."""
    errors = limit_hit = False
    for index, g in enumerate(read_graph6_lines(path)):
        try:
            if isinstance(g, Graph6Error):
                raise g
            got, limited = records(index, g)
        except (Graph6Error, GraphError, PipelineInternalError) as exc:
            got, limited, errors = [_error_record(index, exc, g, config)], False, True
        emit(got)
        limit_hit = limit_hit or limited
    return EXIT_GRAPH_ERROR if errors else EXIT_ORACLE_LIMIT if limit_hit else EXIT_OK


def cmd_run(args, out) -> int:
    cfg = RunConfig(t=parse_q(args.t), cap_oracle=args.cap_oracle)

    def records(index: int, g: Graph):
        cert, trace = run_theorem(g, cfg)
        head = record_line("graph", [("index", index), ("n", g.n), ("t", cfg.t)])
        return [head, *trace, certificate_to_record(cert)], isinstance(cert, OracleLimit)

    lines: list[str] = []
    code = _batch(args.input, records, lines.extend,
                  [("t", cfg.t), ("cap_oracle", cfg.cap_oracle)])
    text = "\n".join(lines) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        out.write(text)
    return code


def _blocks(path: str) -> list[tuple[int | None, str, list[str]]]:
    """Each ``graph`` or ``error`` record of a certificate file, with its
    index and the ``cert`` records after it up to the next such record."""
    blocks: list[tuple[int | None, str, list[str]]] = []
    graph_seen = False
    # a byte past ASCII fails only the record that reads it
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for raw in fh:
            line = raw.strip()
            name = line.split(None, 1)[0] if line else ""
            if name in ("graph", "error"):
                blocks.append((_index(line), line, []))
                graph_seen = graph_seen or name == "graph"
            elif name == "cert":
                if not graph_seen:
                    raise ValueError("certificate record before any graph record")
                blocks[-1][2].append(line)
    return blocks


def _index(line: str) -> int | None:
    """The index of a graph or error record, read past any malformed field
    so that such a field fails only the graph the record names; None when
    the index does not parse, and then the block is no graph's."""
    fields = dict(tok.partition("=")[::2] for tok in line.split()[1:])
    if "index" not in fields:
        raise ValueError(f"{line.split()[0]} record without an index")
    try:
        return int(fields["index"])
    except ValueError:
        return None


def _verdict(record: str, certs: list[str]):
    """A block's (config, certificate), None with no ``cert`` record, or why its
    graph fails: an unreadable record or t, two or more certs, a ``run`` error."""
    name = record.split(None, 1)[0]
    try:
        fields = parse_record(record)[1]
        if name == "error":
            return f"run error:{fields.get('reason', '')}"
        cfg = RunConfig(t=parse_q(fields.get("t", "11")))
    except ValueError as exc:
        return f"unreadable {name} record:{exc}"
    if len(certs) > 1:
        return "more than one certificate"
    try:
        return (cfg, certificate_from_record(certs[0])) if certs else None
    except (KeyError, ValueError) as exc:
        return f"unreadable certificate: {exc}"


def cmd_check(args, out) -> int:
    graphs = read_graph6_lines(args.graph)
    verdicts = {}
    for index, record, certs in _blocks(args.cert):
        # a second block for an index fails that graph instead of replacing the first
        verdicts[index] = "duplicate index" if index in verdicts else _verdict(record, certs)
    failures = 0
    for index, g in enumerate(graphs):
        got = f"unreadable graph: {g}" if isinstance(g, Graph6Error) else verdicts.get(index)
        if got is None:
            out.write(f"check index={index} result=missing\n")
            failures += 1
            continue
        ok, reason = ((False, got) if isinstance(got, str)
                      else check_certificate(g, got[1], got[0]))
        # a reason may quote bytes past ASCII from the cert file; escape them
        reason = reason.replace(" ", "-").encode("ascii", "backslashreplace").decode()
        out.write(f"check index={index} result={'pass' if ok else 'fail'} reason={reason}\n")
        if not ok:
            failures += 1
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _metrics_line(index: int, g: Graph) -> tuple[list[str], bool]:
    limited = False

    def attempt(solver, render):
        nonlocal limited
        try:
            value, _ = solver(g)
        except metrics.OracleLimitExceeded:
            limited = True
            return "limit"
        return render(value)

    tau = attempt(metrics.toughness, lambda v: "inf" if v == metrics.INF else fmt_q(v))
    kappa = attempt(metrics.connectivity, str)
    alpha = attempt(metrics.independence, str)
    s = attempt(metrics.scattering, lambda v: "inf" if v == metrics.INF else str(v))
    return [f"tau={tau} kappa={kappa} alpha={alpha} delta={g.min_degree()} s={s}"], limited


def cmd_metrics(args, out) -> int:
    return _batch(args.input, _metrics_line, lambda got: out.write(got[0] + "\n"))


def cmd_survey(args, out) -> int:
    grid = [parse_q(tok) for tok in args.t_grid.split(",") if tok.strip()]
    if not grid:
        raise ValueError("empty t grid")
    graphs = [SURVEY_GENS[args.gen](args.n, args.seed + i) for i in range(args.count)]
    for t in grid:
        cfg = RunConfig(t=t)
        counts = dict.fromkeys(KINDS.values(), 0)
        for g in graphs:
            cert, _trace = run_theorem(g, cfg)
            counts[certificate_kind(cert)] += 1
        out.write(record_line(
            "survey",
            [("t", t), ("graphs", len(graphs))] + sorted(counts.items())) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toughham",
        description="certifying Hamilton-cycle pipeline for tough pattern-free graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the pipeline on graph6 inputs")
    p_run.add_argument("--t", default="11", help="toughness parameter, NUM/DEN")
    p_run.add_argument("--input", required=True, help="graph6 file, one graph per line")
    p_run.add_argument("--out", default="-", help="certificate file (default stdout)")
    p_run.add_argument("--cap-oracle", type=_positive_int, default=DEFAULT_ORACLE_CAP)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="validate a certificate file")
    p_check.add_argument("--graph", required=True)
    p_check.add_argument("--cert", required=True)
    p_check.set_defaults(func=cmd_check)

    p_metrics = sub.add_parser("metrics", help="print exact structural quantities")
    p_metrics.add_argument("--input", required=True)
    p_metrics.set_defaults(func=cmd_metrics)

    p_survey = sub.add_parser("survey", help="sweep t over a grid and tabulate outcomes")
    p_survey.add_argument("--t-grid", required=True, help="comma-separated rationals")
    p_survey.add_argument("--gen", default="random_in_class", choices=SURVEY_GENS)
    p_survey.add_argument("--n", type=_positive_int, required=True)
    p_survey.add_argument("--count", type=_positive_int, required=True)
    p_survey.add_argument("--seed", type=int, default=0)
    p_survey.set_defaults(func=cmd_survey)
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, out)
    except (Graph6Error, GenerationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
