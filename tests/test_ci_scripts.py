"""The scripts the CI workflow runs from `.github/scripts`."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

from cliquex import verify_max_cliques

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / ".github" / "scripts"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # workloads imports its oracle
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_same_report_compares_reports_and_raw_output(tmp_path, monkeypatch):
    def same(a: str, b: str):
        (tmp_path / "a").write_text(a)
        (tmp_path / "b").write_text(b)
        return subprocess.run([sys.executable, str(SCRIPTS / "same_report.py"), tmp_path / "a",
                               tmp_path / "b"], capture_output=True, text=True)

    report = json.loads(verify_max_cliques(4, {3}).to_json())
    slower = dict(report, elapsed_ms=report["elapsed_ms"] + 1000)
    assert same(json.dumps(report), json.dumps(slower)).returncode == 0
    grid = [dict(cell) for cell in report["grid"]]
    grid[2]["observed"] += 1
    cell = grid[2]
    run = same(json.dumps(report), json.dumps(dict(report, grid=grid)))
    assert run.returncode == 1
    assert f"grid cell n={cell['n']}, m={cell['m']}, s={cell['s']}" in run.stderr
    assert same("Bw\nBs\n", "Bw\nBs\n").returncode == 0
    run = same("Bw\nBs\n", "Bw\nBt\n")
    assert run.returncode == 1 and "line 2" in run.stderr

    workloads = load_workloads(monkeypatch)
    known = {pin for _, pin in workloads.ENUM_PINS.values()} | set(workloads.REPORT_PINS.values())
    pins = re.findall(r"\b[0-9a-f]{64}\b", (SCRIPTS / "cold_start.sh").read_text())
    assert pins and set(pins) <= known


def test_every_benchmark_call_parses(monkeypatch):
    # an option a workload passes has to stay declared on its command
    from cliquex.cli import _build_parser

    parser = _build_parser()
    for workload in load_workloads(monkeypatch).WORKLOADS.values():
        rounds = workload.rounds(0, workload.workers)
        for op in [workload.warmup, *(op for ops in rounds for op in ops)]:
            for argv, _ in op.procs:
                parser.parse_args(argv)


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_replaces_one_string_and_names_tests_that_exist():
    mutants = load_mutants()
    for row in mutants.ROWS:
        assert mutants.mutant_text(ROOT, row) != (ROOT / row.path).read_text(), row
        for test in row.tests:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(), test


def test_a_mutant_that_changes_nothing_survives():
    mutants = load_mutants()
    row = mutants.Row("src/cliquex/graphs.py", "nonzero padding bits", "nonzero padding bits",
                      ("tests/test_graphs.py::test_graph6_optional_prefix",))
    assert not mutants.killed(row)
