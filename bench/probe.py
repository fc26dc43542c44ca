"""A speed probe: one fixed slice of interpreter work, timed again and again.

Usage: python bench/probe.py SAMPLES_FILE

The benchmark starts it on the same CPU as the invocations it times.  Every
``PERIOD_S`` it runs ``work_slice`` once and notes when the slice ended and
how long it took, so the samples taken while an invocation ran say how fast
that CPU was then.  On a shared host the CPU's speed changes from second to
second with its neighbours' load; the benchmark divides it out.

Samples stay in memory and are written to SAMPLES_FILE as JSON when the
probe is stopped with SIGTERM.  The probe also stops by itself when its
parent is gone or after ``MAX_LIFE_S``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

PERIOD_S = 0.01  # sleep between slices: about 4% of one CPU
MAX_LIFE_S = 200  # a benchmark run ends within 180 s
# About 0.4 ms on a 2 GHz Xeon: short enough to finish within one scheduler
# time slice even on a slowed CPU.  A longer slice is preempted by the
# invocation sharing its CPU, the more often the slower the CPU runs, and
# so overstates the slowdown.
SLICE_ITERS = 3_600


def work_slice() -> int:
    """Integer arithmetic and dict stores, as the interpreter runs wallcross."""
    acc, table = 0, {}
    for i in range(SLICE_ITERS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 63] = acc
    return acc


def main() -> int:
    out = sys.argv[1]
    stopping = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(signum))
    parent = os.getppid()
    ends, durations = [], []
    born = time.monotonic_ns()
    while not stopping and os.getppid() == parent:
        start = time.monotonic_ns()
        work_slice()
        end = time.monotonic_ns()
        ends.append(end)
        durations.append(end - start)
        if end - born > MAX_LIFE_S * 1e9:
            break
        time.sleep(PERIOD_S)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"end_ns": ends, "duration_ns": durations}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
