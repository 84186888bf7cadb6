import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquex import (
    EnumerationTask,
    Graph,
    canonical_form,
    choose,
    connected_graphs,
    decompose_connected,
    decompose_erdos,
    from_graph6,
    to_graph6,
)
from cliquex.cli import _decimal_text, _read_graphs, run
from cliquex.enumeration import _frontier, canonical_codes
from conftest import MALFORMED_EDGE_LISTS, cap_address_space, graphs

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


def test_bound_prints_values_past_the_int_string_limit(capsys):
    # Python refuses to print an int of more than 4300 digits unless the
    # limit is lifted, as run does for the whole process
    for argv, (r, t) in [
        (("--m", "1000000000"), decompose_erdos(10**9)),
        (("--m", "1000000000", "--n", "50000"), decompose_connected(10**9, 50000)),
    ]:
        code, out, err = invoke(capsys, "bound", *argv, "--s", "20000")
        value = choose(r, 20000) + choose(t, 19999)
        assert (code, out, err) == (0, f"{value}\n", "")
        assert len(out) > 4300


def test_long_values_print_as_str_does():
    lifts = hasattr(sys, "set_int_max_str_digits")  # Python 3.10.7 and later
    if lifts:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # for str() of the values past the limit
    try:
        values = [0, 1, 2**14000 - 1, 2**14000, 2**14001, 3**209590 + 12345]  # the last: 100000 digits
        values += [10**k - d for k in (1, 4299, 4300, 4301, 20000, 65537) for d in (0, 1)]
        for value in values:
            assert _decimal_text(value) == str(value), value.bit_length()
        assert len(str(values[5])) == 100000
    finally:
        if lifts:
            sys.set_int_max_str_digits(limit)


def test_infeasible_exit_code(capsys):
    code, _, err = invoke(capsys, "bound", "--m", "3", "--n", "9", "--s", "3")
    assert code == 3 and "no connected graph" in err
    for argv in (("bound", "--m", "-1", "--s", "3"), ("decompose", "--m", "-1")):
        code, _, err = invoke(capsys, *argv)
        assert code == 3 and "size must be non-negative" in err
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
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = invoke(capsys, "count", "--s", "3")
        assert (code, out) == (2, "") and err, text


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
        preexec_fn=cap_address_space,
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
        (("verify", "s-order", "--nmax", "5", "--out", "a" * 300), 2),  # name too long
        (("verify", "max-cliques", "--nmax", "5", "--s", "2"), 3),
        (("verify", "extremal-kernels", "--nmax", "5", "--s", "1,3"), 3),
        (("verify", "lemmas", "--nmax", "5", "--workers", "0"), 2),
        # an option the target does not read, and an abbreviated one
        (("verify", "lemmas", "--nmax", "5", "--s", "3"), 2),
        (("verify", "max-cliques", "--nmax", "5", "--iterations", "10"), 2),
        (("verify", "lemmas", "--nmax", "5", "--se", "3"), 2),
        (("verify", "max-cliques", "--nmax", "5", "--work", "2"), 2),
        (("enumerate", "--n", "5", "--work", "2"), 2),
        # the graph commands take no --format, and only lemmas takes --seed
        (("verify", "max-cliques", "--nmax", "5", "--seed", "1"), 2),
        (("verify", "extremal-kernels", "--nmax", "5", "--seed", "1"), 2),
        (("verify", "s-order", "--nmax", "5", "--seed", "1"), 2),
        (("count", "--s", "3", "--format", "graph6"), 2),
        # an unknown option before the command or the verify target
        (("--zz", "count", "--s", "3"), 2),
        (("verify", "--zz", "max-cliques", "--nmax", "4"), 2),
    ],
)
def test_bad_arguments_fail_before_enumerating(capsys, monkeypatch, argv, code):
    # every walk starts from the frontier (the task list) and runs through
    # _leaf_batches (each task), whichever command or harness asks for it
    import cliquex.enumeration

    def refuse(*args):
        raise AssertionError(f"enumerated or read input before rejecting {argv}")

    monkeypatch.setattr(cliquex.enumeration, "_frontier", refuse)
    monkeypatch.setattr(cliquex.enumeration, "_leaf_batches", refuse)
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(read=refuse))
    got, out, err = invoke(capsys, *argv)
    assert (got, out) == (code, "") and err


@pytest.mark.parametrize(
    "argv, prog, unknown",
    [
        (("verify", "max-cliques", "--nmax", "5", "--seed", "1"), "verify max-cliques", "--seed 1"),
        (("verify", "lemmas", "--nmax", "5", "--s", "3"), "verify lemmas", "--s 3"),
        (("count", "--s", "3", "--format", "graph6"), "count", "--format graph6"),
        (("bound", "--m", "10", "--s", "3", "--zz"), "bound", "--zz"),
        # before the command, the top level or the verify group owns the place
        (("--zz", "bound", "--m", "10", "--s", "3"), "", "--zz"),
        (("verify", "--zz", "max-cliques", "--nmax", "4"), "verify", "--zz"),
    ],
)
def test_unknown_options_print_their_commands_usage(capsys, argv, prog, unknown):
    name = f"cliquex {prog}".strip()
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith(f"usage: {name} ")
    assert err.endswith(f"\n{name}: error: unrecognized arguments: {unknown}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_report_write_error_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "verify", "s-order", "--nmax", "4", "--out", "/dev/full")
    assert (code, out) == (2, "") and "No space left on device" in err


def test_edge_list_autodetect(capsys, tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("# triangle\n0 1\n1 2\n0 2\n")
    code, out, _ = invoke(capsys, "count", "--s", "3", "--input", str(path))
    assert code == 0 and out.strip() == "1"
    path.write_bytes(b"# triangle\r\n0 1\r\n1 2\r\n0 2\r\n")
    code, out, _ = invoke(capsys, "count", "--s", "3", "--input", str(path))
    assert code == 0 and out.strip() == "1"


def read_stdin(text: str) -> list[Graph]:
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        return _read_graphs(SimpleNamespace(input="-"))


PADDING = st.text(" \t", max_size=2)
NEWLINE = st.sampled_from(["\n", "\r\n"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), PADDING, graphs(), PADDING, NEWLINE), min_size=1, max_size=4))
def test_graph6_input_reads_back(records):
    # blank lines, CRLF and whitespace around a record are not data
    text = "".join(f"{eol * blank}{pad}{to_graph6(g)}{trail}{eol}" for blank, pad, g, trail, eol in records)
    assert read_stdin(text) == [g for _, _, g, _, _ in records]


EDGES = st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda e: e[0] != e[1])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["", "# edge list\n", "#\r\n", "\n", "  # 0 1\n"]),
    st.lists(st.tuples(EDGES, st.sampled_from([" ", "\t", "  "]), st.sampled_from(["", " # edge", "\t#"]), NEWLINE),
             min_size=1, max_size=12),
)
def test_edge_list_input_reads_back(header, lines):
    text = header + "".join(f"{u}{sep}{v}{comment}{eol}" for (u, v), sep, comment, eol in lines)
    edges = [e for e, _, _, _ in lines]
    assert read_stdin(text) == [Graph.from_edges(1 + max(map(max, edges)), edges)]


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

    from cliquex import argmax_fold

    value, _ = argmax_fold([4], (3,))[4][5, 3]
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
        "--out",
        str(out_path),
    )
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["seed"] == 0
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


def test_serial_commands_never_load_the_process_pool():
    script = """
import contextlib, io, json, sys
from cliquex.cli import run
for argv in (["enumerate", "--n", "6"], ["verify", "max-cliques", "--nmax", "5"],
             ["verify", "lemmas", "--nmax", "5", "--iterations", "10"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [name for name in loaded if name.split(".")[0] == "multiprocessing"] == []


def test_stdin_stream(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\nBo\n"))
    code, out, _ = invoke(capsys, "count", "--s", "3")
    assert code == 0 and out.split() == ["1", "0"]


# sha256 of [exit code, stdout, stderr] as JSON, first 16 hex digits, for
# each (argv, stdin), computed while cli.py still dispatched through one
# if-chain: the help, output and errors must keep every byte. The verify
# help and usage errors were taken again once each target declared its own
# options. A verify report's elapsed_ms is read as 0.
TRANSCRIPTS = [
    (("--help",), "", "8851d7042d714ac9"),
    (("bound", "--help"), "", "421b1afc67fc10d1"),
    (("decompose", "--help"), "", "8fb63f4c9e99cc30"),
    (("count", "--help"), "", "3d10095db60bf23e"),
    (("kernel", "--help"), "", "48b3d084c77d3251"),
    (("moments", "--help"), "", "cf2f3bfb07aeb196"),
    (("compare", "--help"), "", "547b54188888cba6"),
    (("construct", "--help"), "", "d3d76b7245366f68"),
    (("enumerate", "--help"), "", "a1d4a787ca6b3d38"),
    (("verify", "--help"), "", "345a3623031e4f4e"),
    (("bound", "--m", "10", "--n", "7", "--s", "3"), "", "3f61617c33c1d520"),
    (("bound", "--m", "7", "--s", "3"), "", "3b1dbe891b9b6bcf"),
    (("decompose", "--m", "10", "--n", "7"), "", "7cb5c7c0a8ef8885"),
    (("decompose", "--m", "7"), "", "9a8f458406bd45c0"),
    (("count", "--s", "3"), "D~{\nDhc\n", "0e4676a98c6f29c1"),
    (("count", "--s", "3"), "# triangle\r\n0 1\r\n1 2\r\n0 2\r\n", "90f825953954db04"),
    (("kernel", "--s", "1"), "Dhc\nD~{\n", "5f82640ea16040a4"),
    (("moments", "--jmax", "4"), "F~qC?\n", "a0617e58c0d1aa84"),
    (("moments",), to_graph6(Graph.complete(20)) + "\n", "3b3ba804d1c280e0"),
    (("compare",), "G~CW__\nG~qCC?\n", "0338bba6004da6da"),
    (("compare",), "G~qCC?\nG~qCC?\n", "35277899512e5844"),
    (("construct", "--family", "star", "--m", "10", "--n", "7"), "", "b9cc23f96d41bc2b"),
    (("construct", "--family", "krt", "--r", "5", "--t", "3"), "", "4c26902ee85ea0db"),
    (("construct", "--family", "bridge", "--p", "4", "--q", "5", "--len", "2"), "", "f9463c0bf0cd36af"),
    (("construct", "--family", "b1", "--m", "11", "--n", "8"), "", "e11f559420edef06"),
    (("construct", "--family", "b2", "--m", "11", "--n", "8"), "", "e46cde0738a39804"),
    (("enumerate", "--n", "5", "--m", "6"), "", "7044185bfa170a30"),
    (("verify", "max-cliques", "--nmax", "5", "--s", "3,4"), "", "f385a61dfaf2db3a"),
    (("verify", "extremal-kernels", "--nmax", "5", "--s", "3"), "", "c0343188ae63e127"),
    (("verify", "s-order", "--nmax", "5"), "", "85dfdb4e197bd8a1"),
    (("verify", "lemmas", "--nmax", "5", "--seed", "2", "--iterations", "50"), "", "0e3c7dab489a8f06"),
    (("verify", "s-order", "--nmax", "4", "--out", "report.json"), "", "6cc431ca49b5960a"),
    ((), "", "7e446d3ef1587651"),
    (("bogus-subcommand",), "", "72cfb328d07b706b"),
    (("bound", "--m", "10"), "", "cb1628a90976da86"),
    (("bound", "--m", "3", "--n", "9", "--s", "3"), "", "5ca6c321e543c671"),
    (("bound", "--m", "10", "--s", "2"), "", "64b1f674baad280e"),
    (("bound", "--m", "1_0", "--n", "7", "--s", "3"), "", "be4abd27c6b0e55f"),
    (("decompose", "--m", "+10"), "", "0999954a0e34b9e5"),
    (("construct", "--family", "krt", "--m", "5"), "", "c0afb8b12c94089d"),
    (("construct", "--family", "star", "--m", "10"), "", "d625ec8cdc73a5d8"),
    (("construct", "--family", "bridge", "--q", "3"), "", "a75ad3f88a842a85"),
    (("construct", "--family", "b2", "--m", "12", "--n", "8"), "", "89201adabecc7a04"),
    (("construct", "--family", "wheel"), "", "a958d516ac598a0c"),
    (("count", "--s", "3", "--input", "no-such-file.g6"), "", "2ea50cfe5540eda8"),
    (("count", "--s", "3"), "D?\n", "6194a3adb1370aed"),
    (("count", "--s", "3"), "Bé\n", "0fec567499f34ae4"),
    (("count", "--s", "3"), "", "1de8ffd4a4b1131f"),
    (("count", "--s", "3", "--format", "graph6"), "\n", "5d5b729df87e70c8"),
    (("count", "--s", "3"), "0 1_0\n", "afd4f8864ca90209"),
    (("count", "--s", "3"), "0 1000000000\n", "b26f6c586240dc1a"),
    (("compare",), "G~qCC?\n", "7511f062d589355c"),
    (("enumerate", "--n", "5", "--workers", "0"), "", "3b8d1948a8b17ef1"),
    (("verify", "bogus", "--nmax", "5"), "", "8f49d2c1c1f57bb3"),
    (("verify", "max-cliques", "--nmax", "5", "--s", "abc"), "", "7fdfc9f886468e1a"),
    (("verify", "max-cliques", "--nmax", "5", "--s", "3,٤"), "", "0394254ff9a31969"),
    (("verify", "max-cliques", "--nmax", "12"), "", "1a4c7109fb38d15e"),
    (("verify", "s-order", "--nmax", "3"), "", "4246eeb53a6dc257"),
    (("verify", "extremal-kernels", "--nmax", "4", "--s", "5"), "", "1689c09d1cca5f2f"),
    (("verify", "lemmas", "--nmax", "3"), "", "4246eeb53a6dc257"),
    (("verify", "lemmas", "--nmax", "5", "--iterations", "0"), "", "3b3510a5edc8dd8b"),
    (("verify", "s-order", "--nmax", "5", "--out", "no-such-dir/report.json"), "", "510d3f3aca64b944"),
    (("verify", "s-order", "--nmax", "5", "--out", "results/"), "", "ac743d67208f99e6"),
    # the pooled lemma report is the serial one, byte for byte
    (("verify", "lemmas", "--nmax", "5", "--seed", "2", "--iterations", "50", "--workers", "2"), "",
     "0e3c7dab489a8f06"),
    # one more record for each graph6 check that stdin can reach
    (("count", "--s", "3"), "~~??????\n", "84d9a1575a263dd6"),
    (("count", "--s", "3"), "~??\n", "2f5a030e3a70d1a6"),
    (("count", "--s", "3"), "~!!!\n", "bca0d93e66d53c5d"),
    (("count", "--s", "3"), "!\n", "52a9106d8a3efd3e"),
    (("count", "--s", "3"), "~?@@\n", "9070d02fa94fef53"),
    (("count", "--s", "3"), "B!\n", "57e87415a9d33dba"),
    (("count", "--s", "3"), "Bw?\n", "938b4997650afc21"),
    (("count", "--s", "3"), "B`\n", "d42f72ca9485ce0b"),
    (("count", "--s", "3"), "Bw\x1f\n", "938b4997650afc21"),
    # each verify target's own options
    (("verify", "max-cliques", "--help"), "", "50fd4e525d38f735"),
    (("verify", "extremal-kernels", "--help"), "", "7b83f74b23881a26"),
    (("verify", "s-order", "--help"), "", "32794dd9b94b9964"),
    (("verify", "lemmas", "--help"), "", "50f067ff50740521"),
    # s-order takes the --s that benchmark calls pass it, and reads nothing from it
    (("verify", "s-order", "--nmax", "5", "--s", "3,4"), "", "85dfdb4e197bd8a1"),
    # an unknown option is reported with the usage of the command that refused it
    (("verify", "max-cliques", "--nmax", "5", "--seed", "1"), "", "9cf6a39dff39d0d2"),
    (("verify", "lemmas", "--nmax", "5", "--s", "3"), "", "e26d6b559c1accf1"),
    (("bound", "--m", "10", "--s", "3", "--zz"), "", "6b8360c1a8f91e9f"),
    # ... and one before the command with the usage of the top level or the verify group
    (("--zz", "bound", "--m", "10", "--s", "3"), "", "563790cb5004c88e"),
    (("verify", "--zz", "max-cliques", "--nmax", "4"), "", "6a2fbcfe30a67713"),
]


def transcript_digest(capsys, monkeypatch, argv, stdin) -> str:
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = invoke(capsys, *argv)
    out = re.sub(r'"elapsed_ms": [0-9]+', '"elapsed_ms": 0', out)
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()[:16]


# argparse words its help and its errors differently from one Python
# release to the next; the pins were taken under Python 3.11.
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pins taken under Python 3.11")
@pytest.mark.parametrize("argv, stdin, digest", TRANSCRIPTS)
def test_transcripts_match_pins(capsys, monkeypatch, tmp_path, argv, stdin, digest):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert transcript_digest(capsys, monkeypatch, argv, stdin) == digest


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("n, m", [*((n, None) for n in range(1, 8)), (8, 14)])
def test_enumerate_prints_the_codes_of_the_classes(capsys, n, m, workers):
    argv = ["enumerate", "--n", str(n), "--workers", workers] + ([] if m is None else ["--m", str(m)])
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out.splitlines() == sorted(to_graph6(g) for g in connected_graphs(EnumerationTask(n, m)))


def test_serial_enumerate_neither_decodes_nor_reencodes(capsys, monkeypatch):
    import cliquex.cli
    import cliquex.enumeration

    calls = []
    for module, name in ((cliquex.enumeration, "from_graph6"), (cliquex.cli, "to_graph6")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    code, out, _ = invoke(capsys, "enumerate", "--n", "6")
    assert code == 0 and len(out.split()) == 112 and calls == []


def test_canonical_codes_are_the_codes_of_connected_graphs():
    for root in _frontier(7, None):
        task = EnumerationTask(7, None, (root,))
        assert list(canonical_codes(task)) == [canonical_form(g) for g in connected_graphs(task)]


def test_a_reader_that_stops_reading_is_not_an_error():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "cliquex", "enumerate", "--n", "8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), first, err) == (0, b"G?LTE?\n", b"")
