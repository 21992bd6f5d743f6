"""Machine-speed calibration for timings taken on a shared host.

Other tenants of the host slow this process by up to about 1.5x, in phases
of roughly ten seconds, which is the length of a whole benchmark run.  So
while a run measures, a SIGALRM handler times a fixed pure-Python kernel
every INTERVAL_S seconds and logs its slowdown, the kernel's median time
over REF_S.  A timing is then reported at the reference speed: each part
of the timed interval is divided by the slowdown logged just before it,
and the handler's own time is left out.  The kernel is the benchmark's own
code, so no change to the package can move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# median kernel time on an uncontended core of the Xeon host the
# benchmark was written on, CPython 3.11
REF_S = 0.4e-3
REPEATS = 15
INTERVAL_S = 0.5


def kernel() -> None:
    # tuple keys, dict lookups and int arithmetic, as in the planner's loops
    table: dict = {}
    for i in range(2500):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i


def slowdown() -> float:
    """Current kernel time relative to REF_S (about 1 uncontended)."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REF_S


class SpeedLog:
    """Slowdown marks taken from a timer while running; converts timed
    intervals to active time (handler time removed) and to time at the
    reference speed."""

    def __init__(self) -> None:
        self.pause_starts: list[float] = []
        self.pause_ends: list[float] = []
        self.slowdowns: list[float] = []
        self._busy = False

    def _tick(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        k = slowdown()
        self.pause_starts.append(t0)
        self.pause_ends.append(time.perf_counter())
        self.slowdowns.append(k)
        self._busy = False

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _segments(self, a: float, b: float) -> list[tuple[float, float]]:
        """(length, slowdown) of the parts of [a, b] outside the handler;
        each part takes the slowdown logged just before it."""
        starts, ends, ks = self.pause_starts, self.pause_ends, self.slowdowns
        n = len(starts)
        if n == 0:
            return [(b - a, 1.0)]
        out = []
        i = bisect.bisect_right(starts, a) - 1
        if i < 0:
            out.append((min(b, starts[0]) - a, ks[0]))
            i = 0
        for j in range(i, n):
            lo = max(a, ends[j])
            if lo >= b:
                break
            hi = min(b, starts[j + 1]) if j + 1 < n else b
            if hi > lo:
                out.append((hi - lo, ks[j]))
        return out

    def active(self, a: float, b: float) -> float:
        return sum(length for length, _ in self._segments(a, b))

    def scaled(self, a: float, b: float) -> float:
        return sum(length / k for length, k in self._segments(a, b))
