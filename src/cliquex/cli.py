"""Command-line front end.

Graphs travel between subcommands as graph6 lines (one record per
line); an edge-list reader is provided for convenience. Numeric
results print as plain decimals, one per line; verification reports
print as JSON.

Exit codes: 0 success, 1 a verification harness found a mismatch,
2 usage or input parse error, 3 infeasible parameters.
"""

from __future__ import annotations

import argparse
import os
import re
import string
import sys
from itertools import chain
from pathlib import Path

from .cliques import count_s_cliques
from .enumeration import EnumerationTask, connected_graphs, map_partitions
from .extremal import (
    construct_b1,
    construct_b2,
    construct_bridge,
    construct_extremal_star,
    construct_krt,
    decompose_connected,
    decompose_erdos,
    erdos_bound,
    kernel,
    max_cliques_bound,
)
from .graphs import EDGE_LINE, Graph, Graph6Error, from_edge_list, from_graph6, text_lines, to_graph6
from .spectral import s_order_compare, spectral_moments
from .verify import (
    VerificationReport,
    verify_extremal_kernels,
    verify_lemma_suite,
    verify_max_cliques,
    verify_s_order_last,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """An integer option: ASCII digits with an optional leading '-', nothing else."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"need an integer in ASCII digits, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a positive integer, got {text!r}")
    return value


def _report_path(text: str) -> Path:
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"no directory {str(path.parent)!r} for the report")
    # Path drops a trailing separator and a final ".", so read the last component from the text
    if os.path.basename(text) in ("", ".", "..") or path.is_dir():
        raise argparse.ArgumentTypeError(f"report path {text!r} is a directory")
    return path


def _parse_clique_orders(text: str) -> set[int]:
    tokens = (tok.strip(string.whitespace) for tok in text.split(","))
    orders = {_integer(tok) for tok in tokens if tok}
    if not orders:
        raise argparse.ArgumentTypeError(f"need comma-separated clique orders, got {text!r}")
    return orders


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquex",
        description="Sharp s-clique maxima, extremal constructions, and "
        "moment-order verification for small connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", default="-", help="graph source path, or - for stdin")
        p.add_argument(
            "--format",
            choices=("graph6", "edgelist", "auto"),
            default="auto",
            help="input format (auto sniffs the first line)",
        )

    p = sub.add_parser("bound", help="sharp maximum of k_s (connected if --n given)")
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--n", type=_integer)
    p.add_argument("--s", type=_integer, required=True)

    p = sub.add_parser("decompose", help="size/order decomposition (r, t)")
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--n", type=_integer)

    p = sub.add_parser("count", help="k_s for each input graph")
    p.add_argument("--s", type=_integer, required=True)
    add_io(p)

    p = sub.add_parser("kernel", help="iterated low-degree peeling of each input graph")
    p.add_argument("--s", type=_integer, required=True)
    add_io(p)

    p = sub.add_parser("moments", help="closed-walk counts S_0..S_jmax per graph")
    p.add_argument("--jmax", type=_integer, default=None, help="default: order - 1")
    add_io(p)

    p = sub.add_parser("compare", help="moment-order comparison of exactly two graphs")
    add_io(p)

    p = sub.add_parser("construct", help="build an extremal-family graph")
    p.add_argument(
        "--family", choices=("star", "krt", "bridge", "b1", "b2"), required=True
    )
    p.add_argument("--m", type=_integer)
    p.add_argument("--n", type=_integer)
    p.add_argument("--r", type=_integer)
    p.add_argument("--t", type=_integer)
    p.add_argument("--p", type=_integer)
    p.add_argument("--q", type=_integer)
    p.add_argument("--len", type=_integer, default=0, dest="length")

    p = sub.add_parser("enumerate", help="one graph6 line per isomorphism class")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--m", type=_integer, default=None)
    p.add_argument("--workers", type=_positive_int, default=1)

    p = sub.add_parser("verify", help="run a theorem harness and emit a JSON report")
    p.add_argument(
        "target",
        choices=("max-cliques", "extremal-kernels", "s-order", "lemmas"),
    )
    p.add_argument("--nmax", type=_integer, required=True)
    p.add_argument("--s", type=_parse_clique_orders, default="3", help="comma-separated clique orders")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--iterations", type=_positive_int, default=1000)
    p.add_argument("--out", type=_report_path, default=None, help="report path (default stdout)")
    return parser


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return Path(source).read_text()


def _sniff_format(text: str) -> str:
    for line in text_lines(text):
        match = EDGE_LINE.fullmatch(line)
        if match is None:
            return "graph6"
        if match[1] is not None:
            return "edgelist"
    raise ValueError("no graph data found in input")


def _read_graphs(args: argparse.Namespace) -> list[Graph]:
    text = _read_text(args.input)
    fmt = args.format if args.format != "auto" else _sniff_format(text)
    if fmt == "edgelist":
        return [from_edge_list(text)]
    graphs = [from_graph6(line) for line in text_lines(text) if line]
    if not graphs:
        raise ValueError("no graph6 records found in input")
    return graphs


def _graph6_lines(task: EnumerationTask) -> list[str]:
    return [to_graph6(g) for g in connected_graphs(task)]


def _emit_report(report: VerificationReport, out: Path | None) -> int:
    payload = report.to_json()
    if out:
        out.write_text(payload + "\n")
    else:
        print(payload)
    return EXIT_MISMATCH if report.mismatches else EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    family = args.family
    if family in ("star", "b1", "b2"):
        if args.m is None or args.n is None:
            raise _Usage(f"--family {family} needs --m and --n")
        builder = {"star": construct_extremal_star, "b1": construct_b1, "b2": construct_b2}
        print(to_graph6(builder[family](args.m, args.n)))
    elif family == "krt":
        if args.r is None or args.t is None:
            raise _Usage("--family krt needs --r and --t")
        print(to_graph6(construct_krt(args.r, args.t)))
    else:
        if args.p is None or args.q is None:
            raise _Usage("--family bridge needs --p and --q")
        print(to_graph6(construct_bridge(args.p, args.q, args.length)))
    return EXIT_OK


class _Usage(Exception):
    pass


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        if args.command == "bound":
            if args.n is None:
                print(erdos_bound(args.m, args.s))
            else:
                print(max_cliques_bound(args.m, args.n, args.s))
            return EXIT_OK

        if args.command == "decompose":
            if args.n is None:
                r, t = decompose_erdos(args.m)
            else:
                r, t = decompose_connected(args.m, args.n)
            print(f"r={r} t={t}")
            return EXIT_OK

        if args.command == "construct":
            return _cmd_construct(args)

        if args.command == "enumerate":
            parts = map_partitions(_graph6_lines, [args.n], args.m, args.workers)[args.n]
            for line in sorted(chain.from_iterable(parts)):
                print(line)
            return EXIT_OK

        if args.command == "verify":
            if args.target == "max-cliques":
                report = verify_max_cliques(args.nmax, args.s, args.workers, args.seed)
            elif args.target == "extremal-kernels":
                report = verify_extremal_kernels(args.nmax, args.s, args.workers, args.seed)
            elif args.target == "s-order":
                report = verify_s_order_last(args.nmax, args.workers, args.seed)
            else:
                report = verify_lemma_suite(args.seed, args.iterations, args.nmax)
            return _emit_report(report, args.out)

        # remaining commands consume graph input
        try:
            graphs = _read_graphs(args)
        except ValueError as exc:  # malformed records are parse errors, not infeasibility
            raise _Usage(str(exc)) from exc

        if args.command == "count":
            for g in graphs:
                print(count_s_cliques(g, args.s))
            return EXIT_OK

        if args.command == "kernel":
            for g in graphs:
                print(to_graph6(kernel(g, args.s)))
            return EXIT_OK

        if args.command == "moments":
            for g in graphs:
                jmax = args.jmax if args.jmax is not None else max(g.n - 1, 0)
                print(" ".join(str(x) for x in spectral_moments(g, jmax).s))
            return EXIT_OK

        if args.command == "compare":
            if len(graphs) != 2:
                raise _Usage(f"compare needs exactly two graphs, got {len(graphs)}")
            result = s_order_compare(graphs[0], graphs[1])
            if result.relation == "equal":
                print("equal")
            else:
                print(f"{result.relation} {result.first_differing_index}")
            return EXIT_OK

        raise _Usage(f"unknown command {args.command!r}")

    except _Usage as exc:
        print(f"cliquex: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (Graph6Error, OSError) as exc:
        print(f"cliquex: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"cliquex: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
