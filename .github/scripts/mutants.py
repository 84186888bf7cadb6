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
    Row("src/cliquex/verify.py", "families.setdefault((n, code), (core, []))[1].extend(graphs)",
        "families.setdefault((n, code), (core, []))[1].extend(graphs + graphs)",
        ("tests/test_verify.py::test_pendant_star_families_merge_as_one_whole_order_pass",)),
    # the padding check reads as the truncation check
    Row("src/cliquex/graphs.py", 'raise Graph6Error("nonzero padding bits")',
        'raise Graph6Error(f"need {need} data bytes, found {len(body)}")',
        ("tests/test_graphs.py::test_graph6_parse_errors_are_distinct",)),
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
