"""Host speed, sampled while the end-to-end phase measures.

The benchmark runs on a few cores of a shared host whose speed drifts by
half or more over tens of seconds: on a 2-core KVM guest (Intel Xeon,
2.1 GHz) a fixed pure-Python loop took 0.13 s and then 0.22 s a minute
later, and its CPU time drifted with its wall time, so the slowdown is
not time stolen from the guest but slower cores. Runs minutes apart then
disagree by more than any bound a regression check could use.

So while a run measures, a sampler process (this file, run as a script)
does a fixed pure-Python burst of work every SAMPLE_PERIOD_S and reports
the CPU time it took, which rises as the host slows. It keeps about a
tenth of one core busy. A wall time measured over [t0, t1] is multiplied
by REF_BURST_S / (mean burst CPU time around that interval): the result
reads as the seconds the same work takes on the reference host, where a
burst takes REF_BURST_S. The factor depends only on the host, never on
cliquex, so a change that makes cliquex x% faster makes every scaled
time x% smaller.

The burst tracks the drift only in part: over three sets of ten
30-second runs per workload on the guest above, raw median wall times
moved between sets by 11% (verify-n7), 36% (enum-n8), 43%
(verify-n8-w2) and 18% (cli-small), and scaled ones by about 16%, 15%, 7% and
14%. Runs slowed about 1.1 to 1.8 times as steeply as the burst, so a
slow host still reads slower; an exponent fitted to one set did not
hold on the next, so there is none.
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import threading
import time

BURST_ITERATIONS = 100_000
REF_BURST_S = 0.0085  # a typical burst on the guest above, beside a serial workload
SAMPLE_PERIOD_S = 0.06
WINDOW_PAD_S = 0.25  # bursts this close to an interval also describe it
NEAREST = 3  # bursts used when none falls in the window
START_TIMEOUT_S = 10.0


def burst() -> int:
    s = 0
    for i in range(BURST_ITERATIONS):
        s += i * i % 7
    return s


def sample() -> None:
    """The sampler's loop: print "<mid-time> <burst CPU s>" per burst until
    stdin reaches end of file, which it does when the benchmark closes it
    or exits. perf_counter is the system-wide monotonic clock on Linux, so
    the benchmark can compare these times with its own."""
    while True:
        t0, c0 = time.perf_counter(), time.thread_time()
        burst()
        cpu = time.thread_time() - c0
        print(f"{(t0 + time.perf_counter()) / 2!r} {cpu!r}", flush=True)
        if select.select([sys.stdin], [], [], SAMPLE_PERIOD_S)[0]:
            return


class SpeedSampler:
    """Context manager that runs the sampler process and scales intervals
    measured while it ran. The process is stopped and waited for on exit."""

    def __enter__(self) -> "SpeedSampler":
        self.samples: list[tuple[float, float]] = []
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        deadline = time.perf_counter() + START_TIMEOUT_S
        while not self.samples:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.__exit__(None, None, None)
                raise RuntimeError("the speed sampler gave no sample")
            time.sleep(0.01)
        return self

    def _read(self) -> None:
        for line in self.proc.stdout:
            t, cpu = line.split()
            self.samples.append((float(t), float(cpu)))

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()

    def factor(self, t0: float, t1: float) -> float:
        """How much faster the reference host is than this one around [t0, t1]."""
        cpus = [c for t, c in self.samples if t0 - WINDOW_PAD_S <= t <= t1 + WINDOW_PAD_S]
        if not cpus:
            mid = (t0 + t1) / 2
            cpus = [c for _, c in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]]
        return REF_BURST_S / statistics.fmean(cpus)

    def scale(self, t0: float, t1: float) -> float:
        """The wall time t1 - t0, in seconds on the reference host."""
        return (t1 - t0) * self.factor(t0, t1)


if __name__ == "__main__":
    sample()
