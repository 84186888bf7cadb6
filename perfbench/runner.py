"""Running workload operations and gating their output.

`ProcessRunner` starts one fresh `python -m cliquex` process per CLI
call, which is how users pay for the work; the end-to-end metrics come
from it. `InProcessRunner` calls `cliquex.cli.run` in this process, for
the traced pass; it clears the `canonical_form` cache before each call,
so every call starts as cold as a fresh process would.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import Op

PROCESS_TIMEOUT_S = 170

Span = tuple[float, float]  # (start, end) perf_counter seconds


@dataclass
class Tally:
    """Gate results. A failed gate is counted, never retried."""

    attempted: int = 0
    failed: int = 0
    by_kind: Counter = field(default_factory=Counter)  # (kind, passed) -> count
    failures: list[str] = field(default_factory=list)

    def gate(self, op: Op, outs: list[str], rcs: list[int]) -> None:
        self.attempted += 1
        reason = next((f"exit code {rc}" for rc in rcs if rc != 0), None)
        if reason is None:
            try:
                reason = op.check(outs)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        self.by_kind[op.kind, reason is None] += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{op.kind}: {reason}")


def child_env(root: Path) -> dict[str, str]:
    """This process's (already pinned) environment, with the checkout's
    sources first on the import path."""
    path = [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


class Runner:
    """Runs an operation's processes in sequence, each one's stdin being the
    previous one's stdout where the operation asks for it. Returns their
    stdouts, exit codes and (start, end) perf_counter times; stops at the
    first failing process."""

    def __call__(self, op: Op) -> tuple[list[str], list[int], list[Span]]:
        outs: list[str] = []
        rcs: list[int] = []
        spans: list[Span] = []
        for argv, stdin in op.procs:
            t0 = perf_counter()
            rc, out = self.call(argv, outs[-1] if stdin is None else stdin)
            spans.append((t0, perf_counter()))
            outs.append(out)
            rcs.append(rc)
            if rc != 0:
                break
        return outs, rcs, spans

    def call(self, argv: tuple[str, ...], stdin: str) -> tuple[int, str]:
        raise NotImplementedError


class ProcessRunner(Runner):
    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = child_env(root)

    def call(self, argv: tuple[str, ...], stdin: str) -> tuple[int, str]:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cliquex", *argv], input=stdin, capture_output=True,
                text=True, env=self.env, cwd=self.root, timeout=PROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return -9, ""
        return proc.returncode, proc.stdout


class InProcessRunner(Runner):
    def __init__(self, root: Path) -> None:
        sys.path.insert(0, str(root / "src"))
        import cliquex.cli
        import cliquex.graphs

        self.cli = cliquex.cli
        self.cache = cliquex.graphs.canonical_form  # the lru_cache itself, not a wrapper
        self.reset()

    def reset(self) -> None:
        self.cache_hits = self.cache_misses = self.cache_size = self.report_bytes = 0

    def call(self, argv: tuple[str, ...], stdin: str) -> tuple[int, str]:
        self.cache.cache_clear()
        out = io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.run(list(argv))
        except Exception as exc:  # a crash is a failed gate, as it is for a process
            rc = 1
            print(f"cliquex {' '.join(argv)} raised {exc!r}", file=sys.stderr)
        finally:
            sys.stdin = saved_stdin
        info = self.cache.cache_info()
        self.cache_hits += info.hits
        self.cache_misses += info.misses
        self.cache_size = max(self.cache_size, info.currsize)
        if argv[0] == "verify":
            self.report_bytes += len(out.getvalue().encode())
        return rc, out.getvalue()


@dataclass
class LoopResult:
    """(start, end) of every round, and of every process of every
    operation, so that the caller can scale each interval by the host
    speed around it."""

    rounds: list[Span] = field(default_factory=list)
    ops: list[tuple[Op, list[Span]]] = field(default_factory=list)


def closed_loop(run_op, rounds: list[list[Op]], seconds: float, tally: Tally) -> LoopResult:
    """Run whole rounds, cycling through `rounds`, while the next round is
    expected (from the median so far) to end within `seconds`; always at
    least one round."""
    result = LoopResult()
    start = perf_counter()
    i = 0
    while True:
        t0 = perf_counter()
        for op in rounds[i % len(rounds)]:
            outs, rcs, spans = run_op(op)
            tally.gate(op, outs, rcs)
            result.ops.append((op, spans))
        result.rounds.append((t0, perf_counter()))
        i += 1
        if perf_counter() - start + statistics.median(t1 - t0 for t0, t1 in result.rounds) > seconds:
            return result


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
