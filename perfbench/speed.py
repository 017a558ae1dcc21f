"""Follow how fast the shared machine runs Python while a pass runs.

Other tenants of the machine this benchmark was written on slow the same
Python code by 30-60 % for seconds to minutes at a time, so raw timings
of one workload moved by 30-45 % between runs.  While a workload runs, an
interval timer interrupts it every 20 ms to time a fixed pure-Python
probe that does not touch treepack; each call's time, less the probes
inside it, is scaled by the reference probe time over the probe's median
time in and around that call.  Timings are therefore reported in seconds
at the reference speed: the speed at which the probe takes
REFERENCE_PROBE_S, which this machine reached when not slowed.  On five
runs of sweep(6) the raw sweep time ranged over 30 % and the scaled one
over 2.4 %.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager

REFERENCE_PROBE_S = 0.40e-3
PROBE_EVERY_S = 0.02
NEIGHBOURS = 3  # probes taken on each side of a timed interval
# Load on a shared machine changes over seconds; the slowdown that
# stretches a frontier limit is the median over the last second, so that
# one short burst does not set the limit
SLOWDOWN_WINDOW_S = 1.0


def probe() -> int:
    """Fixed interpreter work: bit tricks, a small dict and tuple sorting."""
    acc = 0
    m = 0x5A5A5A5A5A
    d = {}
    for i in range(1500):
        w = m & -m
        m ^= w
        acc += w.bit_length()
        if not m:
            m = 0x5A5A5A5A5A ^ i
        d[i & 255] = (i, acc)
        if i & 7 == 0:
            acc += len(sorted(d[i & 255]))
    return acc


class SpeedMeter:
    def __init__(self):
        self.at: list[float] = []  # probe midpoints, ascending
        self.took: list[float] = []  # probe durations

    def tick(self) -> None:
        """Time the probe once."""
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    @contextmanager
    def running(self):
        """Probe every PROBE_EVERY_S, from a SIGALRM handler, so that
        probes also land inside long calls; the main thread only."""
        self.tick()  # every interval then has a probe near it
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def probe_seconds(self, a: float, b: float) -> float:
        """Probe time spent between clock readings ``a`` and ``b``."""
        return sum(self.took[bisect_left(self.at, a):bisect_right(self.at, b)])

    def slowdown(self) -> float:
        """How many times slower than the reference the probes of the last
        SLOWDOWN_WINDOW_S ran (at least the last 2 * NEIGHBOURS + 1)."""
        lo = min(bisect_left(self.at, self.at[-1] - SLOWDOWN_WINDOW_S),
                 len(self.at) - 2 * NEIGHBOURS - 1)
        return statistics.median(self.took[max(0, lo):]) / REFERENCE_PROBE_S

    def scale(self, a: float, b: float) -> float:
        """Reference over the median probe time in and around [a, b]."""
        lo = max(0, bisect_left(self.at, a) - NEIGHBOURS)
        hi = bisect_right(self.at, b) + NEIGHBOURS
        return REFERENCE_PROBE_S / statistics.median(self.took[lo:hi])


def slowdown_now() -> float:
    """The current slowdown from a few probes, where no meter is running."""
    meter = SpeedMeter()
    for _ in range(2 * NEIGHBOURS + 1):
        meter.tick()
    return meter.slowdown()
