"""A fixed pure-Python kernel that gauges how fast the host runs right now.

The benchmark's host is a shared VM whose speed switches, for seconds to
minutes at a time, between a fast state and one up to 1.7 times slower,
with other tenants' load.  A plain wall time therefore mostly measures
which state the host was in.  ``Gauge`` times one repetition of a fixed
kernel every ``INTERVAL_S`` seconds of wall time, from a ``SIGALRM``
handler, so that the samples interleave with the measured work in the same
process.  A window of wall time is then expressed in kernel repetitions:
its net duration, without the handler's own time, times the mean kernel
rate of the samples taken in it and next to it.  The benchmark reports
that count times ``NOMINAL_S``, the time in seconds the window would have
taken on a host where one repetition takes exactly ``NOMINAL_S``.  That
cancels most of the drift.  The kernel imports nothing from the program,
so no change to the program moves it.  It mixes the kinds of work the
program does: tuple permutations in dicts, rational arithmetic and
big-integer polynomial products.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.2
# the reference speed: seconds per kernel repetition, about what one takes
# on a 2-vCPU x86-64 VM in its fast state
NOMINAL_S = 0.01
# kernel repetitions timed directly before and after a measured region, so
# that every window has samples on both sides
EDGE_REPS = 3


def _permutations() -> int:
    a = (1, 2, 3, 4, 5, 6, 7, 0)
    b = (1, 0, 2, 3, 4, 5, 6, 7)
    seen = {tuple(range(8)): 0}
    frontier = list(seen)
    while frontier and len(seen) < 2000:
        nxt = []
        for p in frontier:
            for g in (a, b):
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen[q] = len(seen)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _rationals() -> Fraction:
    total = Fraction(0)
    for k in range(1, 160):
        total += Fraction((-1) ** k * k, k * k + 1)
    return total


def _polynomials() -> int:
    f = [3, -1, 4, 1, -5, 9, -2, 6]
    g = list(f)
    for _ in range(6):
        h = [0] * (len(g) + len(f) - 1)
        for i, x in enumerate(g):
            for j, y in enumerate(f):
                h[i + j] += x * y
        g = h
    return g[len(g) // 2]


def kernel() -> None:
    """One repetition: about ten milliseconds of mixed work."""
    _permutations()
    for _ in range(3):
        _rationals()
    for _ in range(12):
        _polynomials()


class Gauge:
    """Kernel samples interleaved with a measured region of one process.

    Use as a context manager around the region; ``units(t0, t1)`` then
    converts a window of ``time.monotonic()`` readings taken inside it.
    The clock is the one the parent process reads when it starts a worker,
    so a window may begin before this process did.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        try:
            start = time.monotonic()
            kernel()
            self.starts.append(start)
            self.ends.append(time.monotonic())
        finally:
            self._sampling = False

    def _tick(self, signum, frame) -> None:
        if not self._sampling:  # a slow sample outlasted the interval
            self.sample()

    def __enter__(self) -> "Gauge":
        for _ in range(EDGE_REPS):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_REPS):
            self.sample()

    def _picked(self, t0: float, t1: float) -> range:
        """Samples that start in the window, and the nearest on each side."""
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.starts, t1) + 1, len(self.starts))
        return range(lo, hi)

    def seconds(self, t0: float, t1: float) -> float:
        """The window's net wall time, without the kernel's own time."""
        busy = sum(max(0.0, min(e, t1) - max(s, t0))
                   for s, e in zip(self.starts, self.ends))
        return (t1 - t0) - busy

    def units(self, t0: float, t1: float) -> float:
        """The window's net wall time in kernel repetitions."""
        picked = self._picked(t0, t1)
        rate = statistics.fmean(1 / (self.ends[k] - self.starts[k])
                                for k in picked)
        return self.seconds(t0, t1) * rate
