"""Command-line surface: batch runs, certificate checking, metrics, surveys.

Machine-parsable line records first, human-readable second.  Exit codes:
0 success, 1 check failure, 2 usage error, 3 oracle limit encountered,
4 some graph of a ``run`` or ``metrics`` batch could not be handled (it
gets an ``error`` record and the batch goes on); 4 takes precedence over 3.

A malformed graph6 line ends no batch: ``run`` and ``metrics`` give it an
``error`` record, ``check`` fails it (``unreadable-graph``), as it fails
unreadable ``cert`` records, ``graph`` records with a malformed field or a
``t`` that does not parse (``unreadable-graph-record``), ``error`` records
with a malformed field (``unreadable-error-record``) and graphs ``run`` gave
an ``error`` record (``run-error``); ``check`` reads no trace line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import metrics
from .certificates import (OracleLimit, RunConfig, certificate_from_record,
                           certificate_kind, certificate_to_record, check_certificate,
                           fmt_q, parse_q, parse_record, record_line)
from .generators import GenerationError, generate
from .graph import Graph, GraphError
from .graph6 import Graph6Error, read_graph6_lines, write_graph6
from .pipeline import PipelineInternalError, run_theorem

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ORACLE_LIMIT = 3
EXIT_GRAPH_ERROR = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _config_from_args(args, t: Fraction) -> RunConfig:
    cfg = RunConfig(t=t)
    if args.cap_toughness is not None:
        cfg.cap_subsets = args.cap_toughness
    if args.cap_oracle is not None:
        cfg.cap_oracle = args.cap_oracle
    return cfg


def _error_record(index: int, exc: Exception, g: Graph | None = None) -> str:
    """The ``error`` record of a graph that cannot be certified; a line that
    does not parse (no ``g``) has no ``n`` and no ``graph6`` field."""
    kind = "internal" if isinstance(exc, PipelineInternalError) else "input"
    reason = ("reason", str(exc).replace(" ", "-"))
    if g is None:
        return record_line("error", [("index", index), ("kind", kind), reason])
    return record_line("error", [("index", index), ("n", g.n), ("kind", kind), reason,
                                 ("graph6", write_graph6(g))])


def cmd_run(args, out) -> int:
    t = parse_q(args.t)
    cfg = _config_from_args(args, t)
    limit_hit = errors = False
    records: list[str] = []
    for index, g in enumerate(read_graph6_lines(args.input)):
        if isinstance(g, Graph6Error):
            records.append(_error_record(index, g))
            errors = True
            continue
        try:
            cert, trace = run_theorem(g, cfg)
        except (GraphError, PipelineInternalError) as exc:
            records.append(_error_record(index, exc, g))
            errors = True
            continue
        records.append(record_line("graph", [("index", index), ("n", g.n), ("t", t)]))
        records.extend(trace)
        records.append(certificate_to_record(cert))
        if isinstance(cert, OracleLimit):
            limit_hit = True
    text = "\n".join(records) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        out.write(text)
    if errors:
        return EXIT_GRAPH_ERROR
    return EXIT_ORACLE_LIMIT if limit_hit else EXIT_OK


def _certificates_by_index(path: str):
    """Per graph index, (t, certificate), or the reason its check fails
    without one: an unreadable ``cert`` record, a ``graph`` or ``error``
    record with a malformed field or a ``t`` that does not parse, or a
    ``run`` error record.  The records after a ``graph`` record whose index
    does not parse go under None, which no graph reads."""
    found: dict[int | None, tuple[Fraction, object] | str] = {}
    started = False
    current = None
    current_t: Fraction | str = Fraction(11)
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            # only graph and error records are parsed here, so an unreadable
            # cert or trace line fails no other graph
            name = line.split()[0]
            if name in ("graph", "error"):
                index = _index(line)
                try:
                    fields = parse_record(line)[1]
                    value = (parse_q(fields.get("t", "11")) if name == "graph"
                             else f"run error:{fields.get('reason', '')}")
                except ValueError as exc:
                    value = f"unreadable {name} record:{exc}"
                if name == "graph":
                    started, current, current_t = True, index, value
                if isinstance(value, str):
                    found[index] = value
            elif name == "cert":
                if not started:
                    raise ValueError("certificate record before any graph record")
                if isinstance(current_t, str):
                    continue
                try:
                    found[current] = (current_t, certificate_from_record(line))
                except (KeyError, ValueError) as exc:
                    found[current] = f"unreadable certificate: {exc}"
    return found


def _index(line: str) -> int | None:
    """The index of a graph or error record, read past any malformed field
    so that such a field fails only the graph the record names; None when
    the index does not parse."""
    fields = dict(tok.partition("=")[::2] for tok in line.split()[1:])
    if "index" not in fields:
        raise ValueError(f"{line.split()[0]} record without an index")
    try:
        return int(fields["index"])
    except ValueError:
        return None


def cmd_check(args, out) -> int:
    graphs = read_graph6_lines(args.graph)
    certs = _certificates_by_index(args.cert)
    failures = 0
    for index, g in enumerate(graphs):
        got = certs.get(index)
        if isinstance(g, Graph6Error):
            ok, reason = False, f"unreadable graph: {g}"
        elif got is None:
            out.write(f"check index={index} result=missing\n")
            failures += 1
            continue
        elif isinstance(got, str):
            ok, reason = False, got
        else:
            ok, reason = check_certificate(g, got[1], RunConfig(t=got[0]))
        out.write(f"check index={index} result={'pass' if ok else 'fail'}"
                  f" reason={reason.replace(' ', '-')}\n")
        if not ok:
            failures += 1
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _metrics_line(g: Graph) -> tuple[str, bool]:
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
    line = f"tau={tau} kappa={kappa} alpha={alpha} delta={g.min_degree()} s={s}"
    return line, limited


def cmd_metrics(args, out) -> int:
    limit_hit = errors = False
    for index, g in enumerate(read_graph6_lines(args.input)):
        if isinstance(g, Graph6Error):
            out.write(_error_record(index, g) + "\n")
            errors = True
            continue
        line, limited = _metrics_line(g)
        out.write(line + "\n")
        limit_hit = limit_hit or limited
    if errors:
        return EXIT_GRAPH_ERROR
    return EXIT_ORACLE_LIMIT if limit_hit else EXIT_OK


def cmd_survey(args, out) -> int:
    grid = [parse_q(tok) for tok in args.t_grid.split(",") if tok.strip()]
    if not grid:
        raise ValueError("empty t grid")
    graphs = [generate(args.gen, {"n": args.n, "p": 0.5}, seed=args.seed + i)
              for i in range(args.count)]
    for t in grid:
        cfg = RunConfig(t=t)
        counts = {"hamilton-cycle": 0, "toughness-witness": 0,
                  "forbidden-witness": 0, "oracle-limit": 0}
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
    p_run.add_argument("--cap-toughness", type=_positive_int, default=None)
    p_run.add_argument("--cap-oracle", type=_positive_int, default=None)
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
    p_survey.add_argument("--gen", default="random_in_class",
                          choices=("random_in_class", "random", "complete"))
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
