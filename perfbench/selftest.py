"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a toy workload (`enumerate --n 5`, `verify ... --nmax 4` with two
workers, and three short CLI calls) through the same set-up, closed
loop, traced passes and metric emission as run.py, and checks that

- every metric BENCHMARK.json names is emitted with its unit, untraced
  and traced, and every gate passes;
- a corrupted pinned hash trips the gate, and the run is then reported
  as incorrect.

Exits 0 when all of these hold; takes a few seconds.
"""

from __future__ import annotations

import json
import random
import sys

import oracle
import run
from runner import ProcessRunner, Tally
from workloads import Workload, decompose_op, enumerate_op, kernel_op, moments_op, verify_op

TOY = Workload(
    "toy",
    warmup=enumerate_op(5),
    rounds=lambda seed, workers: [[
        enumerate_op(5),
        verify_op("max-cliques", 4, "3", workers=workers),
        verify_op("s-order", 4, None, workers=workers),
        decompose_op(6, 10),
        kernel_op(random.Random(seed)),
        moments_op([oracle.krt(4, 2)]),
    ]],
    workers=2,
)

WRONG_PIN = "0" * 64


def check(condition: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def main() -> int:
    run.pin_environment()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    run.OUT.mkdir(exist_ok=True)

    for label, spec, measure in (
        ("end-to-end", bench["end_to_end"], lambda t: run.end_to_end(TOY, 0, 0.1, t)),
        ("per-layer", bench["per_layer"],
         lambda t: run.per_layer(TOY, 0, t, run.OUT / "toy.spans.tsv.gz")),
    ):
        tally = Tally()
        values, _ = measure(tally)
        try:
            metrics = run.emit(spec, values)
        except KeyError as exc:
            check(False, f"{label}: metric {exc} is emitted", failures)
            continue
        check(all(metrics[m["name"]]["unit"] == m["unit"] for m in spec),
              f"{label}: all {len(spec)} metrics emitted with their units", failures)
        check(tally.attempted > 0 and tally.failed == 0,
              f"{label}: {tally.attempted} gated operations, {tally.failed} failed", failures)
        if label == "per-layer":
            check(values["verify.worker_cpu_s"] > 0, "per-layer: worker CPU time is seen",
                  failures)

    runner = ProcessRunner(run.ROOT)
    for op in (enumerate_op(5, pin=(21, WRONG_PIN)),
               verify_op("max-cliques", 4, "3", pin=WRONG_PIN)):
        tally = Tally()
        outs, rcs, _ = runner(op)
        tally.gate(op, outs, rcs)
        check(tally.failed == 1, f"corrupted pin trips the {op.kind} gate", failures)

    bad = Workload("toy-corrupted", warmup=decompose_op(6, 10),
                   rounds=lambda seed, workers: [[enumerate_op(5, pin=(21, WRONG_PIN))]])
    result = run.run_workload(bad, 0, 0.1, False, bench)
    check(not result["correct"] and result["failed"] == result["attempted"] - run.SETUP_REPEATS,
          "a run with a failed gate reports correct: false", failures)

    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
