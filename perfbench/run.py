"""cliquex benchmark: one command for every workload, metric and gate.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere; it benchmarks the sources under `src/` next to
this directory. With --trace 0 it sets the workload up several times,
then runs whole rounds of fresh `python -m cliquex` processes for
--seconds and reports the end-to-end metrics named in BENCHMARK.json.
Those times are scaled to a reference host speed, sampled while the run
measures (perfbench/speed.py), because the shared host's own speed
drifts more than any useful bound; the raw times go to perfbench/out/.
With --trace 1 it runs the workload through `cliquex.cli.run` in this
process, once untraced and once traced (perfbench/tracing.py), and
reports the per-layer metrics. Every operation's output passes a
correctness gate either way. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; full results and spans
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from runner import (
    InProcessRunner,
    ProcessRunner,
    Tally,
    child_env,
    children_cpu_s,
    children_peak_rss_mb,
    closed_loop,
)
from speed import SpeedSampler
from tracing import Tracer
from workloads import WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# CLIQUEX_WORKERS would change the default worker count; a set
# PYTHONDONTWRITEBYTECODE would leave the warm-up unable to fill bytecode.
UNSET_ENV = ("CLIQUEX_WORKERS", "PYTHONDONTWRITEBYTECODE")

SETUP_REPEATS = 5
PROBE_REPEATS = 3
# A fixed percentile, so that a faster program (more samples per run) is
# not measured at a different one. On cli-small it has more than ten
# samples beyond it; the other workloads run too few calls for any
# percentile to have ten beyond it, and there it interpolates.
TAIL_PERCENTILE = 90

# Figures printed with the metrics but not gated: they do not exist on
# every workload, or (fail_ratio) are 0 when all is well.
DETAIL_UNITS = {
    "fail_ratio": "failed/attempted",
    "classes_per_s": "classes/s",
    "cli_tail_percentile": "%",
    "cli_tail_samples_beyond": "samples",
    "cli_samples": "samples",
    "rounds": "rounds",
    "speed_factor": "ratio",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
}


def pin_environment() -> None:
    """Re-execute this script under the pinned environment; its children inherit it."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()) and not any(
        k in os.environ for k in UNSET_ENV
    ):
        return
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at `root`, read from .git without running git."""
    head = _read(str(root / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(str(root / ".git" / ref)).strip()
    if commit:
        return commit
    for line in _read(str(root / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg": _read("/proc/loadavg").split()[:3],
        "commit": git_commit(ROOT),
    }


def tail(samples: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE of the samples and how many samples lie beyond it."""
    if len(samples) == 1:
        return samples[0], 0
    value = statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(x > value for x in samples)


def set_up(workload: Workload, seed: int, tally: Tally) -> list[list[Op]]:
    """Make the inputs from the seed and run one untimed, gated warm-up call."""
    rounds = workload.rounds(seed, workload.workers)
    runner = ProcessRunner(ROOT)
    outs, rcs, _ = runner(workload.warmup)
    tally.gate(workload.warmup, outs, rcs)
    return rounds


def end_to_end(workload: Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Set up SETUP_REPEATS times, then run the closed loop; every time is
    scaled to the reference host (perfbench/speed.py)."""
    with SpeedSampler() as speed:
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            rounds = set_up(workload, seed, tally)
            setup_spans.append((t0, perf_counter()))
        loop = closed_loop(ProcessRunner(ROOT), rounds, seconds, tally)
        peak_rss_mb = children_peak_rss_mb()

    samples = [speed.scale(*span) for _, spans in loop.ops for span in spans]
    round_walls = [speed.scale(*span) for span in loop.rounds]
    tail_s, beyond = tail(samples)
    values = {
        "setup_s": statistics.median(speed.scale(*span) for span in setup_spans),
        "wall_s": statistics.median(round_walls),
        "cli_p50_ms": 1000 * statistics.median(samples),
        "cli_tail_ms": 1000 * tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    kind_walls = defaultdict(list)
    classes = classes_wall = 0.0
    for op, spans in loop.ops:
        wall = sum(speed.scale(*span) for span in spans)
        kind_walls[op.kind].append(wall)
        if op.classes:
            classes += op.classes
            classes_wall += wall
    detail = {
        "rounds": len(round_walls),
        "cli_samples": len(samples),
        "cli_tail_percentile": TAIL_PERCENTILE,
        "cli_tail_samples_beyond": beyond,
        "fail_ratio": tally.failed / tally.attempted,
        "speed_factor": statistics.median(speed.factor(*span) for span in loop.rounds),
        "raw_setup_s": statistics.median(t1 - t0 for t0, t1 in setup_spans),
        "raw_wall_s": statistics.median(t1 - t0 for t0, t1 in loop.rounds),
        "speed_samples": len(speed.samples),
        "op_median_s": {kind: statistics.median(w) for kind, w in sorted(kind_walls.items())},
        "setup_runs_s": [speed.scale(*span) for span in setup_spans],
        "round_walls_s": round_walls,
    }
    if classes:
        detail["classes_per_s"] = classes / classes_wall
    return values, detail


# ── traced run ────────────────────────────────────────────────────


def _run(argv: list[str], env: dict) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=60, check=True)
    return perf_counter() - t0, proc.stderr


def _import_times(importtime: str) -> tuple[float, float]:
    """Cumulative import time of cliquex.cli and of numpy, in seconds."""
    package_us = numpy_us = 0
    for line in importtime.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative, name = int(fields[1]), fields[2]
        if name == " cliquex.cli":  # imported at top level, so it includes the package
            package_us = cumulative
        elif name.strip() == "numpy" and not numpy_us:
            numpy_us = cumulative
    return package_us / 1e6, numpy_us / 1e6


def cli_probes() -> dict:
    """Interpreter start-up and import costs, medians of a few fresh processes."""
    env = child_env(ROOT)
    interpreter = [_run([sys.executable, "-c", "pass"], env)[0] for _ in range(PROBE_REPEATS)]
    imports = [_import_times(_run([sys.executable, "-X", "importtime", "-c", "import cliquex.cli"],
                                  env)[1])
               for _ in range(PROBE_REPEATS)]
    return {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.import_s": statistics.median(i for i, _ in imports),
        "cli.import_numpy_s": statistics.median(n for _, n in imports),
    }


def _flatten(rounds: list[list[Op]], count: int) -> list[Op]:
    return [op for ops in rounds[:count] for op in ops]


def _timed_pass(runner: InProcessRunner, ops: list[Op], tally: Tally, tracer: Tracer | None) -> float:
    if tracer:
        tracer.install()
    try:
        t0 = perf_counter()
        for run_id, op in enumerate(ops):
            if tracer:
                tracer.run_id = run_id
            outs, rcs, _ = runner(op)
            tally.gate(op, outs, rcs)
        return perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()


def per_layer(workload: Workload, seed: int, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    """Untraced then traced in-process passes over the workload's first
    rounds. A multi-worker workload is traced once serially, where every
    span is visible, and once with its workers, for the child CPU time."""
    values = cli_probes()
    ops = _flatten(set_up(workload, seed, tally), workload.trace_rounds)
    runner = InProcessRunner(ROOT)
    untraced_wall = _timed_pass(runner, ops, tally, None)

    runner.reset()
    tracer = Tracer()
    serial_ops = _flatten(workload.rounds(seed, 1), workload.trace_rounds)
    traced_wall = _timed_pass(runner, serial_ops, tally, tracer)
    hits, misses = runner.cache_hits, runner.cache_misses
    values["graphs.canonical_form.cache_size"] = runner.cache_size
    values["verify.report_bytes"] = runner.report_bytes
    worker_cpu_s = efficiency = 0.0
    if workload.workers > 1:
        cpu0 = children_cpu_s()
        traced_wall = _timed_pass(runner, ops, tally, Tracer())
        worker_cpu_s = children_cpu_s() - cpu0
        efficiency = worker_cpu_s / (workload.workers * traced_wall)

    totals = tracer.totals()
    for name, (calls, self_s) in totals.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    children = totals["graphs.add_vertex"][0]
    passes = totals["enumeration.connected_graphs"][0]
    values.update({
        "graphs.canonical_form.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "enumeration.classes": tracer.classes,
        "enumeration.accept_ratio": tracer.classes / children if children else 0.0,
        "enumeration.passes_per_order": passes / len(tracer.orders) if tracer.orders else 0.0,
        "verify.worker_cpu_s": worker_cpu_s,
        "verify.parallel_efficiency": efficiency,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    detail = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": tracer.write_spans(spans_path),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return values, detail


# ── output ────────────────────────────────────────────────────────


def emit(spec: list[dict], values: dict) -> dict:
    """{name: {"value", "unit"}} for every metric in `spec`; a metric the
    run did not produce is an error in the benchmark itself."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    host = machine()  # before the run, so loadavg shows the load it started under
    tally = Tally()
    stem = f"{workload.name}-seed{seed}"
    if trace:
        values, detail = per_layer(workload, seed, tally, OUT / f"{workload.name}.spans.tsv.gz")
        spec = bench["per_layer"]
    else:
        values, detail = end_to_end(workload, seed, seconds, tally)
        spec = bench["end_to_end"]
    metrics = emit(spec, values)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    gates = {f"{kind} {'pass' if ok else 'FAIL'}": n for (kind, ok), n in sorted(tally.by_kind.items())}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": host, "gates": gates, "failures": tally.failures[:20],
              "detail": detail, **result}
    (OUT / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"== {workload.name}  seed {seed}  trace {int(trace)}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for key, unit in DETAIL_UNITS.items():
        if key in detail:
            print(f"  {key:<36} {detail[key]:>14.6g} {unit}")
    for kind, med in detail.get("op_median_s", {}).items():
        print(f"  {kind + ' (median op)':<36} {med:>14.6g} s")
    print(f"  gates: {gates}")
    for failure in tally.failures[:20]:
        print(f"  gate failed: {failure}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cliquex" / "__init__.py").is_file():
        print(f"perfbench: no cliquex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), bench)
        print(json.dumps(result))
        return 0
    # One process per workload, so that child-process peaks and the
    # in-process caches of one workload do not carry into the next.
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(args.trace)]
        lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
