"""A CPU-speed probe that runs inside the measured process.

On a shared machine the speed of a core changes from one moment to the
next: a fixed pure-Python loop takes anywhere from 1x to 1.8x its best
time as neighbours load the host.  Pass times inherit that.  The probe
runs the same small loop 100 times a second from a SIGALRM handler and
records when each run started and how long it took.  A measured interval
is then reported as

    (its time - probe time inside it) * REF_S / (median probe time near it)

that is, in seconds at the speed where one probe loop takes REF_S, which
is its best time on the machine the benchmark was written on.  The probe
costs about 1% of the process's time, and that share is taken out again.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

REF_S = 80e-6
INTERVAL_S = 0.01
LOOPS = 2000
NEAREST = 5


class Probe:
    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self.total = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        x = 0
        for k in range(LOOPS):
            x += k
        d = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(d)
        self.total += d

    def start(self) -> None:
        self._tick(None, None)  # one run now, so no window is ever empty
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def local_time(self, lo: float, hi: float) -> float:
        """Median probe time over [lo, hi], or over the NEAREST probes to it."""
        i, j = bisect.bisect_left(self.starts, lo), bisect.bisect_right(self.starts, hi)
        if j - i < NEAREST:
            mid = bisect.bisect_left(self.starts, (lo + hi) / 2)
            i = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            j = i + NEAREST
        return statistics.median(self.durations[i:j])

    def scaled(self, seconds: float, lo: float, hi: float) -> float:
        """Seconds measured over [lo, hi], at the reference probe speed."""
        return seconds * REF_S / self.local_time(lo, hi)


class Timer:
    """Time one operation with the probe's own share taken out."""

    def __init__(self, probe: Probe):
        self.probe = probe

    def __enter__(self):
        self.t0 = time.perf_counter()
        self.p0 = self.probe.total
        return self

    def __exit__(self, *exc):
        self.t1 = time.perf_counter()
        self.raw = self.t1 - self.t0 - (self.probe.total - self.p0)
        return False

    def scaled(self, margin: float = 0.1) -> float:
        return self.probe.scaled(self.raw, self.t0 - margin, self.t1 + margin)
