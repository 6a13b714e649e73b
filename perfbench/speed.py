"""The machine's speed, sampled while the jobs run.

On a shared host the same job list runs 20-60 % slower or faster from one
minute to the next, and a CPU-bound loop drifts the same way, so the raw
wall time of a run says more about the neighbours than about relhom.  A
worker therefore interrupts itself every `INTERVAL_S` of CPU time
(`ITIMER_PROF`) and runs `calibrate`, a fixed piece of pure-Python work of
the kind relhom does (integer row operations that allocate new rows,
permutation products hashed into a dict).  A job's time net of those
interruptions, scaled by `CAL_REF_S` over the calibration time measured
around it, is the job's time at the reference speed: the benchmark's
end-to-end times are in these seconds.  `calibrate` is the benchmark's own
code, so a change in relhom moves the scaled times in full, while a change
in the machine's speed moves them only as far as it slows relhom and the
calibration unequally.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# CPU time between two calibration samples.
INTERVAL_S = 0.025
# Median time of one `calibrate` on the machine the benchmark was written
# on (2-CPU Intel Xeon, Python 3.11), so scaled times read as seconds there.
CAL_REF_S = 0.0015
# A job's speed is the median calibration time over the samples that start
# within this many seconds of the job, and at least over the nearest
# `MIN_SAMPLES` samples.
WINDOW_S = 0.05
MIN_SAMPLES = 9


def calibrate() -> int:
    """Fixed work, about 1.5 ms on the reference machine: row operations
    on a 40 x 40 matrix of multi-digit integers, each making new rows, as
    relhom's eliminations do, and a few permutation products hashed into
    a dict."""
    rows = [[(i * 131 + j * 977) % 100003 + 1000 for j in range(40)] for i in range(40)]
    for k in range(4):
        piv = rows[k][k]
        rows = rows[:k + 1] + [[(a * piv - b * r[k]) % 1000003 for a, b in zip(r, rows[k])]
                               for r in rows[k + 1:]]
    seen = {}
    perm = tuple((3 * i + 1) % 16 for i in range(16))
    p = perm
    for _ in range(24):
        p = tuple(perm[x] for x in p)
        seen[p] = seen.get(p, 0) + 1
    return sum(map(sum, rows)) + len(seen)


class Probe:
    """Samples `calibrate` every `INTERVAL_S` of the process's CPU time.
    `samples` holds the (start, end) of each sample; `on_sample`, if given,
    is told each sample's duration."""

    def __init__(self, interval_s: float = INTERVAL_S,
                 on_sample: Optional[Callable[[float], None]] = None):
        self.interval_s = interval_s
        self.on_sample = on_sample
        self.samples: List[Tuple[float, float]] = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = now()
            calibrate()
            t1 = now()
            self.samples.append((t0, t1))
            if self.on_sample is not None:
                self.on_sample(t1 - t0)
        finally:
            self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)


def scaled_times(jobs: Sequence[Tuple[float, float]],
                 samples: Sequence[Tuple[float, float]]) -> List[float]:
    """Each job's (start, end) as seconds at the reference speed: its
    duration less the samples inside it, times `CAL_REF_S` over the median
    calibration time near it."""
    starts = [s for s, _e in samples]
    cal = [e - s for s, e in samples]
    out = []
    for t0, t1 in jobs:
        inside = sum(min(e, t1) - max(s, t0) for s, e in samples if s < t1 and e > t0)
        near = [c for s, c in zip(starts, cal) if t0 - WINDOW_S <= s <= t1 + WINDOW_S]
        if len(near) < MIN_SAMPLES:
            by_distance = sorted(range(len(cal)), key=lambda i: max(t0 - starts[i], starts[i] - t1, 0.0))
            near = [cal[i] for i in by_distance[:MIN_SAMPLES]]
        out.append((t1 - t0 - inside) * CAL_REF_S / statistics.median(near))
    return out
