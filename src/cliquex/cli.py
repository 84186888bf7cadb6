"""Command-line front end.

Graphs travel between subcommands as graph6 lines (one record per
line); an edge-list reader is provided for convenience. Numeric
results print as plain decimals, one per line; verification reports
print as JSON.

Each subcommand is declared once, in `_build_parser`: its options and
the act that returns its output lines or its report. `run` parses,
calls the act, prints or writes what it returns, and maps errors to
exit codes: 0 success, 1 a verification harness found a mismatch,
2 usage or input parse error, 3 infeasible parameters.
"""

from __future__ import annotations

import argparse
import os
import re
import string
import sys
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from .cliques import count_s_cliques
from .enumeration import EnumerationTask, canonical_codes, map_partitions
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
from .graphs import EDGE_LINE, Graph, from_edge_list, from_graph6, text_lines, to_graph6
from .spectral import moment_sequence, s_order_compare, spectral_moments
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


def _sniff_format(text: str) -> str:
    for line in text_lines(text):
        match = EDGE_LINE.fullmatch(line)
        if match is None:
            return "graph6"
        if match[1] is not None:
            return "edgelist"
    raise ValueError("no graph data found in input")


def _read_graphs(args: argparse.Namespace) -> list[Graph]:
    try:  # malformed records are parse errors, not infeasibility
        text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
        fmt = args.format if args.format != "auto" else _sniff_format(text)
        if fmt == "edgelist":
            return [from_edge_list(text)]
        graphs = [from_graph6(line) for line in text_lines(text) if line]
    except ValueError as exc:
        raise _Usage(str(exc)) from exc
    if not graphs:
        raise _Usage("no graph6 records found in input")
    return graphs


def _graph6_lines(task: EnumerationTask) -> list[str]:
    return list(canonical_codes(task))


class _Usage(Exception):
    pass


# The table entries look each function up when they run, so a wrapper put
# on a module binding (as a tracer does) is the one they call.
# family: (the options it needs, its builder)
_FAMILIES = {
    "star": (("m", "n"), lambda args: construct_extremal_star(args.m, args.n)),
    "krt": (("r", "t"), lambda args: construct_krt(args.r, args.t)),
    "bridge": (("p", "q"), lambda args: construct_bridge(args.p, args.q, args.length)),
    "b1": (("m", "n"), lambda args: construct_b1(args.m, args.n)),
    "b2": (("m", "n"), lambda args: construct_b2(args.m, args.n)),
}


def _decimal_text(value: int) -> str:
    """``str(value)`` of a nonnegative integer, subquadratic past 14000 bits
    (4215 digits): bit halves join as hi * 2**w + lo in exact ``decimal``."""
    if value.bit_length() <= 14000:
        return str(value)
    import decimal  # only for huge values
    exact = decimal.Context(decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded])
    power = lru_cache(None)(lambda w: exact.power(2, w))

    def convert(v: int, w: int) -> decimal.Decimal:  # v < 2**w
        if w <= 4096:
            return decimal.Decimal(v)
        half = w >> 1
        hi = exact.multiply(convert(v >> half, w - half), power(half))
        return exact.add(hi, convert(v & ((1 << half) - 1), half))
    return str(convert(value, value.bit_length()))


def _bound(args: argparse.Namespace) -> list[str]:
    bound = erdos_bound(args.m, args.s) if args.n is None else max_cliques_bound(args.m, args.n, args.s)
    return [_decimal_text(bound)]


def _decompose(args: argparse.Namespace) -> list[str]:
    r, t = decompose_erdos(args.m) if args.n is None else decompose_connected(args.m, args.n)
    return [f"r={r} t={t}"]


def _moments(args: argparse.Namespace) -> Iterator[str]:
    for g in _read_graphs(args):
        moments = moment_sequence(g) if args.jmax is None else spectral_moments(g, args.jmax)
        yield " ".join(map(str, moments))


def _compare(args: argparse.Namespace) -> list[str]:
    graphs = _read_graphs(args)
    if len(graphs) != 2:
        raise _Usage(f"compare needs exactly two graphs, got {len(graphs)}")
    result = s_order_compare(graphs[0], graphs[1])
    if result.relation == "equal":
        return ["equal"]
    return [f"{result.relation} {result.first_differing_index}"]


def _construct(args: argparse.Namespace) -> list[str]:
    needs, build = _FAMILIES[args.family]
    if any(getattr(args, name) is None for name in needs):
        raise _Usage(f"--family {args.family} needs " + " and ".join(f"--{name}" for name in needs))
    return [to_graph6(build(args))]


def _enumerate(args: argparse.Namespace) -> list[str]:
    parts = map_partitions(_graph6_lines, [args.n], args.m, args.workers)
    return sorted(code for codes in parts for code in codes)


_INT = {"type": _integer}
_REQUIRED_INT = {"type": _integer, "required": True}
_WORKERS = {"type": _positive_int, "default": 1}
_SEED = {"type": _integer, "default": 0}
_ORDERS = {"type": _parse_clique_orders, "default": "3", "help": "comma-separated clique orders"}
_OUT = {"type": _report_path, "default": None, "help": "report path (default stdout)"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquex",
        description="Sharp s-clique maxima, extremal constructions, and "
        "moment-order verification for small connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, act, options: dict, graphs: bool = False, group=sub) -> None:
        """A subcommand of group: its options in order, then the graph-input options
        if it reads graphs, and no other option or abbreviation. act(args)
        returns the output lines or a VerificationReport."""
        p = group.add_parser(name, help=summary, allow_abbrev=False)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        if graphs:
            p.add_argument("--input", default="-", help="graph source path, or - for stdin")
            p.add_argument("--format", choices=("graph6", "edgelist", "auto"), default="auto",
                           help="input format (auto sniffs the first line)")
        p.set_defaults(act=act)

    command("bound", "sharp maximum of k_s (connected if --n given)", _bound,
            {"--m": _REQUIRED_INT, "--n": _INT, "--s": _REQUIRED_INT})
    command("decompose", "size/order decomposition (r, t)", _decompose, {"--m": _REQUIRED_INT, "--n": _INT})
    command("count", "k_s for each input graph",
            lambda args: (count_s_cliques(g, args.s) for g in _read_graphs(args)),
            {"--s": _REQUIRED_INT}, graphs=True)
    command("kernel", "iterated low-degree peeling of each input graph",
            lambda args: (to_graph6(kernel(g, args.s)) for g in _read_graphs(args)),
            {"--s": _REQUIRED_INT}, graphs=True)
    command("moments", "closed-walk counts S_0..S_jmax per graph", _moments,
            {"--jmax": {"type": _integer, "default": None, "help": "default: order - 1"}}, graphs=True)
    command("compare", "moment-order comparison of exactly two graphs", _compare, {}, graphs=True)
    command("construct", "build an extremal-family graph", _construct, {
        "--family": {"choices": tuple(_FAMILIES), "required": True},
        **dict.fromkeys(("--m", "--n", "--r", "--t", "--p", "--q"), _INT),
        "--len": {"type": _integer, "default": 0, "dest": "length"},
    })
    command("enumerate", "one graph6 line per isomorphism class", _enumerate,
            {"--n": _REQUIRED_INT, "--m": _INT, "--workers": _WORKERS})
    targets = sub.add_parser("verify", help="run a theorem harness and emit a JSON report",
                             allow_abbrev=False).add_subparsers(dest="target", required=True)
    theorem = {"--nmax": _REQUIRED_INT, "--s": _ORDERS, "--workers": _WORKERS, "--seed": _SEED, "--out": _OUT}
    command("max-cliques", "enumerated maxima of k_s against the sharp bound",
            lambda args: verify_max_cliques(args.nmax, args.s, args.workers, args.seed), theorem, group=targets)
    command("extremal-kernels", "the kernel of every graph that attains the maximum",
            lambda args: verify_extremal_kernels(args.nmax, args.s, args.workers, args.seed), theorem, group=targets)
    command("s-order", "the pendant-star graph alone last in the moment order",
            lambda args: verify_s_order_last(args.nmax, args.workers, args.seed),
            {**theorem, "--s": {**_ORDERS, "help": "not read; kept for old callers"}}, group=targets)
    command("lemmas", "property suites for the supporting lemmas",
            lambda args: verify_lemma_suite(args.seed, args.iterations, args.nmax, args.workers),
            {"--nmax": _REQUIRED_INT, "--seed": _SEED, "--iterations": {"type": _positive_int, "default": 1000},
             "--workers": _WORKERS, "--out": _OUT}, group=targets)
    return parser


def run(argv: list[str]) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # a bound may print with more than 4300 digits
        sys.set_int_max_str_digits(0)
    code = EXIT_OK
    try:
        args = _build_parser().parse_args(argv)
        result = args.act(args)
        if isinstance(result, VerificationReport):
            code = EXIT_MISMATCH if result.mismatches else EXIT_OK
            if args.out:
                args.out.write_text(result.to_json() + "\n")
                return code
            result = [result.to_json()]
        for line in result:
            print(line)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader stopped reading; the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except SystemExit as exc:  # argparse has printed the help or a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    except (_Usage, OSError, ValueError) as exc:
        print(f"cliquex: {exc}", file=sys.stderr)
        usage = isinstance(exc, (_Usage, OSError))
        return EXIT_USAGE if usage else EXIT_INFEASIBLE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
