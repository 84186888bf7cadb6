import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from cliquex import EnumerationTask, Graph, connected_graphs, from_graph6, to_graph6
from cliquex.cli import run
from cliquex.enumeration import _frontier
from conftest import MALFORMED_EDGE_LISTS

ROOT = Path(__file__).resolve().parent.parent


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound(capsys):
    code, out, _ = invoke(capsys, "bound", "--m", "10", "--n", "7", "--s", "3")
    assert code == 0 and out.strip() == "5"
    code, out, _ = invoke(capsys, "bound", "--m", "7", "--s", "3")
    assert code == 0 and out.strip() == "4"


def test_decompose(capsys):
    code, out, _ = invoke(capsys, "decompose", "--m", "10", "--n", "7")
    assert code == 0 and out.strip() == "r=4 t=2"
    code, out, _ = invoke(capsys, "decompose", "--m", "7")
    assert code == 0 and out.strip() == "r=4 t=1"


def test_infeasible_exit_code(capsys):
    code, _, err = invoke(capsys, "bound", "--m", "3", "--n", "9", "--s", "3")
    assert code == 3 and "no connected graph" in err
    code, _, _ = invoke(capsys, "construct", "--family", "b2", "--m", "12", "--n", "8")
    assert code == 3


def test_usage_exit_code(capsys):
    assert invoke(capsys, "bogus-subcommand")[0] == 2
    assert invoke(capsys, "bound", "--m", "10")[0] == 2
    code, _, err = invoke(capsys, "construct", "--family", "krt", "--m", "5")
    assert code == 2 and "needs --r and --t" in err


def test_count_from_file(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("D~{\nDhc\n")
    code, out, _ = invoke(capsys, "count", "--s", "3", "--input", str(path))
    assert code == 0
    values = [int(line) for line in out.split()]
    assert len(values) == 2


def test_count_parse_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "bad.g6"
    path.write_text("D?\n")
    code, _, err = invoke(capsys, "count", "--s", "3", "--input", str(path))
    assert code == 2 and "data bytes" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO("B\u00e9\n"))
    code, out, err = invoke(capsys, "count", "--s", "3")
    assert code == 2 and out == "" and "non-ASCII" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\x1e\n"))
    code, out, err = invoke(capsys, "count", "--s", "3")
    assert code == 2 and out == "" and err
    for text in MALFORMED_EDGE_LISTS:
        for fmt in ("auto", "edgelist"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code, out, err = invoke(capsys, "count", "--s", "3", "--format", fmt)
            assert (code, out) == (2, "") and err, (text, fmt)


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


def test_count_huge_vertex_number_fails_at_once():
    # The order is checked before one row per vertex is allocated. The
    # child's address space is capped at 512 MB, so a regression fails
    # with MemoryError instead of taking gigabytes.
    proc = subprocess.run(
        [sys.executable, "-m", "cliquex", "count", "--s", "3"],
        input="0 1000000000\n",
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "") and "outside [0, 64]" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--m", "1_0", "--n", "\u0667", "--s", "3"),
        ("bound", "--m", "1_0", "--n", "7", "--s", "3"),
        ("bound", "--m", "10", "--n", "\u0667", "--s", "3"),
        ("bound", "--m", "10", "--n", "7", "--s", "\uff13"),  # fullwidth 3
        ("decompose", "--m", "+10"),
        ("count", "--s", "0_3"),
        ("kernel", "--s", "\u0663"),
        ("moments", "--jmax", "1_0"),
        ("construct", "--family", "krt", "--r", "\u0663", "--t", "1"),
        ("construct", "--family", "bridge", "--p", "4", "--q", "3", "--len", "0_0"),
        ("enumerate", "--n", "\u0665"),
        ("enumerate", "--n", "5", "--m", "1_0"),
        ("enumerate", "--n", "5", "--workers", "1_0"),
        ("verify", "max-cliques", "--nmax", "\u0665"),
        ("verify", "max-cliques", "--nmax", "5", "--s", "3,\u0664"),
        ("verify", "max-cliques", "--nmax", "5", "--s", "3,4_0"),
        ("verify", "lemmas", "--nmax", "5", "--seed", "1_0"),
        ("verify", "lemmas", "--nmax", "5", "--iterations", "\u0665"),
    ],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "") and "ASCII digits" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("enumerate", "--n", "5", "--workers", "0"), 2),
        (("verify", "s-order", "--nmax", "5", "--workers", "0"), 2),
        (("verify", "max-cliques", "--nmax", "5", "--s", "abc"), 2),
        (("verify", "max-cliques", "--nmax", "5", "--s", ","), 2),
        (("verify", "max-cliques", "--nmax", "12"), 3),
        (("verify", "max-cliques", "--nmax", "2"), 3),
        (("verify", "s-order", "--nmax", "3"), 3),
        (("verify", "extremal-kernels", "--nmax", "4", "--s", "5"), 3),
        (("verify", "lemmas", "--nmax", "3"), 3),
        (("verify", "lemmas", "--nmax", "5", "--iterations", "0"), 2),
        (("verify", "s-order", "--nmax", "5", "--out", "no-such-dir/report.json"), 2),
        (("verify", "s-order", "--nmax", "5", "--out", "."), 2),
        (("verify", "s-order", "--nmax", "5", "--out", "results/"), 2),
    ],
)
def test_bad_arguments_fail_before_enumerating(capsys, monkeypatch, argv, code):
    import cliquex.enumeration
    import cliquex.verify

    def refuse(task):
        raise AssertionError(f"enumerated order {task.n} before rejecting {argv}")

    monkeypatch.setattr(cliquex.enumeration, "connected_graphs", refuse)
    monkeypatch.setattr(cliquex.verify, "connected_graphs", refuse)
    got, out, err = invoke(capsys, *argv)
    assert (got, out) == (code, "") and err


def test_edge_list_autodetect(capsys, tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("# triangle\n0 1\n1 2\n0 2\n")
    code, out, _ = invoke(capsys, "count", "--s", "3", "--input", str(path))
    assert code == 0 and out.strip() == "1"
    path.write_bytes(b"# triangle\r\n0 1\r\n1 2\r\n0 2\r\n")
    code, out, _ = invoke(capsys, "count", "--s", "3", "--input", str(path))
    assert code == 0 and out.strip() == "1"


def test_kernel_command(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text(to_graph6(Graph.path(5)) + "\n")
    code, out, _ = invoke(capsys, "kernel", "--s", "1", "--input", str(path))
    assert code == 0 and out.strip() == "?"  # empty kernel


def test_construct_and_moments_pipeline(capsys, tmp_path):
    code, out, _ = invoke(capsys, "construct", "--family", "star", "--m", "10", "--n", "7")
    assert code == 0
    g = from_graph6(out.strip())
    assert (g.n, g.m) == (7, 10)

    path = tmp_path / "star.g6"
    path.write_text(out)
    code, out, _ = invoke(capsys, "moments", "--jmax", "4", "--input", str(path))
    assert code == 0
    values = [int(tok) for tok in out.split()]
    assert values[:3] == [7, 0, 20]

    # S_19 of K_20 is past 2^63; the walk counts are still exact
    path.write_text(to_graph6(Graph.complete(20)) + "\n")
    code, out, _ = invoke(capsys, "moments", "--input", str(path))
    assert code == 0
    assert [int(tok) for tok in out.split()] == [19**j + 19 * (-1) ** j for j in range(20)]


def test_construct_bridge_flags(capsys):
    code, out, _ = invoke(capsys, "construct", "--family", "bridge", "--p", "4", "--q", "3", "--len", "0")
    assert code == 0
    g = from_graph6(out.strip())
    assert (g.n, g.m) == (6, 9)


def test_compare_command(capsys, tmp_path):
    b2 = invoke(capsys, "construct", "--family", "b2", "--m", "11", "--n", "8")[1]
    b1 = invoke(capsys, "construct", "--family", "b1", "--m", "11", "--n", "8")[1]
    path = tmp_path / "pair.g6"
    path.write_text(b2 + b1)
    code, out, _ = invoke(capsys, "compare", "--input", str(path))
    assert code == 0 and out.strip() == "before 4"
    path.write_text(b1 + b1)
    code, out, _ = invoke(capsys, "compare", "--input", str(path))
    assert code == 0 and out.strip() == "equal"
    path.write_text(b1)
    code, _, err = invoke(capsys, "compare", "--input", str(path))
    assert code == 2 and "exactly two" in err


def test_enumerate_sorted_deterministic(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--n", "4", "--m", "4")
    assert code == 0
    lines = out.split()
    assert len(lines) == 2 and lines == sorted(lines)
    again = invoke(capsys, "enumerate", "--n", "4", "--m", "4")[1]
    assert again == out
    multi = invoke(capsys, "enumerate", "--n", "4", "--m", "4", "--workers", "3")[1]
    assert multi == out


def test_enumerate_workers_split_the_tree(capsys):
    # (6, 8) grows from several frontier roots, and more than one task is nonempty
    tasks = [EnumerationTask(6, 8, (root,)) for root in _frontier(6, 8)]
    assert sum(bool(list(connected_graphs(task))) for task in tasks) > 1
    serial = invoke(capsys, "enumerate", "--n", "6", "--m", "8", "--workers", "1")
    assert serial[0] == 0 and len(serial[1].split()) == 22
    assert invoke(capsys, "enumerate", "--n", "6", "--m", "8", "--workers", "2") == serial


def test_enumerate_count_pipeline_consistency(capsys, monkeypatch):
    out = invoke(capsys, "enumerate", "--n", "4", "--m", "5")[1]
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, counted, _ = invoke(capsys, "count", "--s", "3")
    assert code == 0

    from cliquex import argmax_fold, count_s_cliques

    value, _ = argmax_fold([4], lambda g: ((g.m, count_s_cliques(g, 3)),))[4][5]
    assert max(int(tok) for tok in counted.split()) == value


def test_verify_report_and_exit(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = invoke(
        capsys,
        "verify",
        "max-cliques",
        "--nmax",
        "5",
        "--s",
        "3,4",
        "--workers",
        "2",
        "--seed",
        "11",
        "--out",
        str(out_path),
    )
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["seed"] == 11
    assert all(cell["status"] == "match" for cell in payload["grid"])


def test_verify_lemmas_to_stdout(capsys):
    code, out, _ = invoke(
        capsys, "verify", "lemmas", "--nmax", "5", "--seed", "2", "--iterations", "50"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem_id"] == "lemma-suite"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cliquex.cli", "bound", "--m", "10", "--n", "7", "--s", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "5"


# Packages a short command never uses and that each cost milliseconds to
# import; the process pool is loaded only by map_partitions with workers > 1.
UNUSED_AT_START = ("numpy", "concurrent.futures", "multiprocessing", "dataclasses", "inspect")
# Submodules the benchmark's tracer reads from sys.modules after importing cliquex.cli.
TRACED_MODULES = ("graphs", "cliques", "extremal", "spectral", "enumeration", "verify", "cli")


def test_cli_import_loads_only_what_commands_run():
    script = ("import json, sys; before = set(sys.modules); import cliquex.cli; "
              "print(json.dumps([sorted(set(sys.modules) - before), sorted(sys.modules)]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    new, loaded = json.loads(proc.stdout)
    unused = [name for name in new for pkg in UNUSED_AT_START
              if name == pkg or name.startswith(pkg + ".")]
    assert unused == []
    assert {f"cliquex.{name}" for name in TRACED_MODULES} <= set(loaded)


def test_stdin_stream(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\nBo\n"))
    code, out, _ = invoke(capsys, "count", "--s", "3")
    assert code == 0 and out.split() == ["1", "0"]
