"""Exit 0 if the tests kill every mutant in ROWS, else exit 1.

Each row names a file of the tree, an exact string that occurs in it once,
the string's replacement, and the tests that must fail once the string is
replaced. For each row the tree is copied to a temporary directory, the one
replacement is made there, and the row's tests run on the copy. The mutant
is killed when pytest reports a failed test (exit 1). A mutant whose tests
pass survives; a row whose string does not occur exactly once, or whose
tests cannot run (any other exit), is an error. Survivors and errors are
named on stderr.

A refactor that moves a row's string must update the row in the same
change; tests/test_ci_scripts.py checks that each string occurs once.

Usage: python .github/scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]


class Row(NamedTuple):
    path: str  # relative to the root of the tree
    old: str
    new: str
    tests: tuple[str, ...]


ROWS = [
    # the leaf's cliques that avoid its new vertex are dropped
    Row("src/cliquex/cliques.py", "counts = table[-1] + (table[mask] << 16)", "counts = table[mask] << 16",
        ("tests/test_enumeration.py::test_fold_carries_each_leafs_size_and_clique_counts_from_its_parent",)),
    # _accepted keys its firsts on the rows, so sibling duplicates leak past it into every consumer
    Row("src/cliquex/enumeration.py", "firsts.setdefault(canonical_form(g), g)", "firsts.setdefault(rows, g)",
        ("tests/test_enumeration.py::test_argmax_fold_equals_a_fold_over_connected_graphs",
         "tests/test_enumeration.py::test_generation_tree_unchanged",
         "tests/test_enumeration.py::test_accepted_keeps_the_first_child_of_each_class")),
    # the last vertex may take one edge more than the budget leaves
    Row("src/cliquex/enumeration.py", "fewest <= mask.bit_count() <= most]",
        "fewest <= mask.bit_count() <= most + (k == n - 1)]",
        ("tests/test_enumeration.py::test_emitted_graphs_are_canonical_and_in_cell",)),
    # one task's pendant-star families are merged twice
    Row("src/cliquex/verify.py", "families.setdefault(key, (core, []))[1].extend(graphs)",
        "families.setdefault(key, (core, []))[1].extend(graphs + graphs)",
        ("tests/test_verify.py::test_pendant_star_families_merge_as_one_whole_order_pass",)),
    # the padding check reads as the truncation check
    Row("src/cliquex/graphs.py", 'raise Graph6Error("nonzero padding bits")',
        'raise Graph6Error(f"need {need} data bytes, found {len(body)}")',
        ("tests/test_graphs.py::test_graph6_parse_errors_are_distinct",)),
    # the key table's spread recurrence is off by one vertex
    Row("src/cliquex/enumeration.py", "spreads += [spread | 1 << 64 * v for spread in spreads]",
        "spreads += [spread | 1 << 64 * (v + 1) for spread in spreads]",
        ("tests/test_enumeration.py::test_parent_test_arithmetic_matches_the_rows",)),
    # the fold tests every top-order child, as the walk behind enumerate does
    Row("src/cliquex/enumeration.py", "_leaf_batches(task):\n        if parent.n + 1 not in orders:",
        "_batches(task):\n        if parent.n + 1 not in orders:",
        ("tests/test_enumeration.py::test_fold_searches_only_internal_nodes_and_attaining_leaves",)),
    # a leaf's carried clique counts span its whole parent, not the new vertex's mask
    Row("src/cliquex/cliques.py", "counts = table[-1] + (table[mask] << 16)",
        "counts = table[-1] + (table[-1] << 16)",
        ("tests/test_enumeration.py::test_fold_carries_each_leafs_size_and_clique_counts_from_its_parent",)),
    # the subset table adds the cliques of the whole set below the new top vertex, not of its neighbours there
    Row("src/cliquex/cliques.py", "(table[row & mask] << 16)", "(table[mask] << 16)",
        ("tests/test_enumeration.py::test_subset_tables_count_the_cliques_of_every_induced_subgraph",)),
    # a top-order child that ties the running maximum is dropped before the test, so attaining classes go
    Row("src/cliquex/enumeration.py", "if any(map(ge, values, most)):", "if any(a > b for a, b in zip(values, most)):",
        ("tests/test_enumeration.py::test_argmax_fold_equals_a_fold_over_connected_graphs",)),
    # the candidates reach their parent's own maxima, not the task's: the same reports, more tests
    Row("src/cliquex/enumeration.py", "if any(map(ge, values, maxima[m]))]",
        "if any(map(ge, values, map(max, values, *(v for _, k, v in reach if k == m))))]",
        ("tests/test_enumeration.py::test_fold_tests_only_the_top_orders_children_that_reach_a_task_maximum",)),
    # the top order's walk hands over only its last level, so order 7 is not folded at n_max = 8
    Row("src/cliquex/enumeration.py", "yield g, accepted", "yield g, accepted if g.n == n - 1 else []",
        ("tests/test_enumeration.py::test_orders_above_the_frontier_fold_as_they_do_alone",)),
    # the deletion identity counts the neighbourhood up to s - 1 however small it is
    Row("src/cliquex/cliques.py", "if s - 1 <= nbrs.bit_count() else 0", "if True else 0",
        ("tests/test_cliques.py::test_huge_clique_order_counts_zero_at_once",)),
    # extremal-kernels takes its clique orders unchecked, so --s 1,3 walks orders 1..5 before
    # kernel() rejects s = 1 with the same exit code
    Row("src/cliquex/verify.py", "svals = _clique_orders(s_values)  # below order",
        "svals = tuple(sorted(s_values))  # below order",
        ("tests/test_cli.py::test_bad_arguments_fail_before_enumerating",)),
    # the lemma task checks only its own order's classes, so order 7 goes unchecked at n_max = 8
    Row("src/cliquex/verify.py", "for g in walk_classes(task):",
        "for g in (g for g in walk_classes(task) if g.n == task.n):",
        ("tests/test_verify.py::test_lemma_checks_run_on_the_folds_task_list",)),
    # the commands take abbreviated options, so lemmas reads --s 3 as --seed 3
    Row("src/cliquex/cli.py", "group.add_parser(name, help=summary, allow_abbrev=False)",
        "group.add_parser(name, help=summary)",
        ("tests/test_cli.py::test_bad_arguments_fail_before_enumerating",)),
    # lemmas takes --s again, and reads nothing from it
    Row("src/cliquex/cli.py", '{"--nmax": _REQUIRED_INT, "--seed": _SEED,',
        '{"--nmax": _REQUIRED_INT, "--s": _ORDERS, "--seed": _SEED,',
        ("tests/test_cli.py::test_bad_arguments_fail_before_enumerating",)),
    # s-order drops the --s that benchmark calls pass it
    Row("src/cliquex/cli.py", '{**theorem, "--s": {**_ORDERS, "help": "not read; kept for old callers"}}',
        '{key: value for key, value in theorem.items() if key != "--s"}',
        ("tests/test_ci_scripts.py::test_every_benchmark_call_parses",)),
    # the fold counts every level of its walk, so argmax_fold([8], ...) meets order-7 cells it has no slot for
    Row("src/cliquex/enumeration.py", "if parent.n + 1 not in orders:", "if False:",
        ("tests/test_enumeration.py::test_the_fold_counts_cliques_only_on_the_orders_asked",)),
    # any vertex of low degree passes, cut vertex or not
    Row("src/cliquex/verify.py", "core.degree(u) <= r - 1 and not _is_cut_vertex(core.adj, u)",
        "core.degree(u) <= r - 1",
        ("tests/test_verify.py::test_noncut_check_needs_the_low_degree_vertex_to_be_no_cut",)),
    # the graph commands take --format again, and read the input it names nothing from
    Row("src/cliquex/cli.py", 'p.add_argument("--input", default="-", help="graph source path, or - for stdin")',
        'p.add_argument("--input", default="-", help="graph source path, or - for stdin"); p.add_argument("--format")',
        ("tests/test_cli.py::test_bad_arguments_fail_before_enumerating",)),
    # the theorem targets take --seed again, and only copy it into the report
    Row("src/cliquex/cli.py", '"--s": _ORDERS, "--workers": _WORKERS, "--out": _OUT}',
        '"--s": _ORDERS, "--workers": _WORKERS, "--seed": _SEED, "--out": _OUT}',
        ("tests/test_cli.py::test_bad_arguments_fail_before_enumerating",)),
    # an edge list that opens with a comment line is read as graph6
    Row("src/cliquex/cli.py", "if match is None:", 'if match is None or line.startswith("#"):',
        ("tests/test_cli.py::test_edge_list_input_reads_back",)),
    # an unknown option is reported with the top-level usage, not its command's
    Row("src/cliquex/cli.py", "owner.error(", "_build_parser().error(",
        ("tests/test_cli.py::test_unknown_options_print_their_commands_usage",)),
    # an unknown option before the command is reported with the command's usage
    Row("src/cliquex/cli.py", "if at != name), args.parsers[-1])", "if False), args.parsers[-1])",
        ("tests/test_cli.py::test_unknown_options_print_their_commands_usage",)),
    # the canonical search's filter keeps the candidates adjacent to a placed vertex, not those apart from it
    Row("src/cliquex/graphs.py", "if kept := cands & far:", "if kept := cands & ~far:",
        ("tests/test_graphs.py::test_canonical_form_matches_reference_on_every_small_class",)),
    # the first cut reads every lane, so a cut vertex of the parent refutes children it may not
    Row("src/cliquex/enumeration.py", "for u in range(k) if not self.parts[u])", "for u in range(k))",
        ("tests/test_enumeration.py::test_totals_per_order",)),
    # the first cut also takes one-vertex masks, whose vertex is a cut vertex of the child
    Row("src/cliquex/enumeration.py", "if not (mask & mask - 1 and ~(keys + bias) & noncut)]",
        "if not ~(keys + bias) & noncut]",
        ("tests/test_enumeration.py::test_matches_networkx_atlas_counts",)),
    # a cold-start pin that no benchmark pin matches
    Row(".github/scripts/cold_start.sh", "2 ccf7e2b8788d", "2 ccf7e2b8788e",
        ("tests/test_ci_scripts.py::test_same_report_compares_reports_and_raw_output",)),
]


def mutant_text(root: Path, row: Row) -> str:
    """The row's file under root with its one replacement made."""
    text = (root / row.path).read_text()
    if text.count(row.old) != 1:
        raise ValueError(f"{row.path}: {row.old!r} occurs {text.count(row.old)} times, not once")
    return text.replace(row.old, row.new)


def killed(row: Row) -> bool:
    """Whether the row's tests fail on a copy of the tree with the row's replacement."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        (tree / row.path).write_text(mutant_text(ROOT, row))
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *row.tests],
                             cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                             capture_output=True, text=True)
    if run.returncode not in (0, 1):
        raise ValueError(f"pytest exited {run.returncode}:\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
    return run.returncode == 1


def main() -> int:
    bad = 0
    for row in ROWS:
        start = time.monotonic()
        try:
            verdict = "killed" if killed(row) else "SURVIVED"
        except ValueError as exc:
            verdict = f"ERROR {exc}"
        print(f"{verdict} in {time.monotonic() - start:.1f} s: {row.path}: {row.old!r} -> {row.new!r}",
              file=sys.stderr)
        bad += verdict != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
