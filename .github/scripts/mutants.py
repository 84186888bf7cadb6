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
    Row("src/cliquex/enumeration.py", "counts[s] + within[s - 1]", "within[s - 1]",
        ("tests/test_enumeration.py::test_fold_carries_each_leafs_size_and_clique_counts_from_its_parent",)),
    # the dedup keeps the first sibling duplicate, not the last
    Row("src/cliquex/enumeration.py", "map(canonical_form, reversed(graphs))", "map(canonical_form, graphs)",
        ("tests/test_enumeration.py::test_argmax_fold_equals_a_fold_over_connected_graphs",)),
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
    Row("src/cliquex/enumeration.py", "self.spreads += [spread | 1 << 64 * v for spread in self.spreads]",
        "self.spreads += [spread | 1 << 64 * (v + 1) for spread in self.spreads]",
        ("tests/test_enumeration.py::test_parent_test_arithmetic_matches_the_rows",)),
    # every folded leaf is canonicalized, not only the attaining ones
    Row("src/cliquex/enumeration.py", "mask = g.adj[-1]  # the new vertex's neighbours in the parent",
        "mask = g.adj[-1] + 0 * len(canonical_form(g))",
        ("tests/test_enumeration.py::test_fold_searches_only_internal_nodes_and_attaining_leaves",)),
    # a leaf's carried clique counts span its whole parent, not the new vertex's mask
    Row("src/cliquex/enumeration.py", "within = _clique_counts(parent.adj, mask, max(top - 1, 1))",
        "within = _clique_counts(parent.adj, (1 << parent.n) - 1, max(top - 1, 1))",
        ("tests/test_enumeration.py::test_fold_carries_each_leafs_size_and_clique_counts_from_its_parent",)),
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
    Row("src/cliquex/enumeration.py", "if n not in orders:", "if False:",
        ("tests/test_enumeration.py::test_the_fold_counts_cliques_only_on_the_orders_asked",)),
    # any vertex of low degree passes, cut vertex or not
    Row("src/cliquex/verify.py", "core.degree(u) <= r - 1 and not _is_cut_vertex(core.adj, u)",
        "core.degree(u) <= r - 1",
        ("tests/test_verify.py::test_noncut_check_needs_the_low_degree_vertex_to_be_no_cut",)),
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
