"""Host-speed probes: timings scaled to a host of fixed speed.

The shared host the benchmark is tuned on runs at speeds up to about 1.7x
apart.  The speed changes within milliseconds as well as in phases lasting
minutes, and the slowdown shows in the process's CPU time as well as in
wall time, so neither clock alone gives the same figure for the same work
on two runs.  The benchmark therefore samples the host's speed with a
*probe* -- a fixed piece of pure-Python work of the kinds the solvers do
(tuple keys, dict updates, a heap) -- and scales each timed interval by
how fast the probes in and near it ran:

    scaled = (raw - probe time inside) * NOMINAL_PROBE_S / median(probe times)

Probes run at marks between timed intervals and, while :meth:`Meter.sampling`
is active, every ``SAMPLE_PERIOD_S`` from a timer signal, so that a long
solve is judged by the speed during it and not only at its ends.  The
probe time spent inside an interval is taken out of it.

A scaled time is the time the interval would take on a host where the
probe takes ``NOMINAL_PROBE_S`` seconds (about its time in the fast phase
of the 2-vCPU Xeon VM this was tuned on).  The probe does not touch
coordmp, so a change to coordmp moves scaled times as it moves raw ones;
only the host's speed is taken out.
"""
from __future__ import annotations

import bisect
import contextlib
import gc
import heapq
import signal
import statistics
import time

NOMINAL_PROBE_S = 0.0005
PROBE_N = 500
MARK_PROBES = 3  # probes per mark between intervals
SAMPLE_PERIOD_S = 0.025  # timer probes while sampling: about 2% of the time
WINDOW_S = 0.1  # probes this close to an interval's ends judge it too


def probe_work(n: int = PROBE_N) -> int:
    """The fixed work a probe times."""
    seen = {}
    heap = []
    for i in range(n):
        key = (i % 61, (i * 7) % 53)
        seen[key] = seen.get(key, 0) + 1
        heapq.heappush(heap, ((i * 7919) % 1009, key))
    while heap:
        heapq.heappop(heap)
    return len(seen)


class Meter:
    """A time line of probes and the scaling of intervals against it."""

    def __init__(self):
        self.at: list[float] = []  # when each probe ended, in order
        self.took: list[float] = []  # how long it took
        self._busy = False

    def _probe(self) -> None:
        if self._busy:  # the timer fired during a mark's probe
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()  # a collection of the solvers' heap is not host speed
        try:
            t0 = time.perf_counter()
            probe_work()
            t1 = time.perf_counter()
            self.at.append(t1)
            self.took.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def mark(self) -> None:
        """Probe the host between two timed intervals."""
        for _ in range(MARK_PROBES):
            self._probe()

    @contextlib.contextmanager
    def sampling(self):
        """Probe the host every SAMPLE_PERIOD_S, also inside timed calls."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._probe())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_PROBE_S over the median probe time in and around [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.took[lo:hi]
        if not near:  # no probe that close: take the nearest on each side
            i = bisect.bisect_left(self.at, start)
            near = self.took[max(i - 1, 0): i + 1]
        return NOMINAL_PROBE_S / statistics.median(near)

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` between two marks; returns (result, (start, end))."""
        self.mark()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.mark()
        return result, (start, end)

    def scaled(self, interval) -> float:
        """The interval's length less the probes inside it, scaled."""
        start, end = interval
        lo = bisect.bisect_right(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        inside = sum(self.took[lo:hi])
        return (end - start - inside) * self.factor(start, end)
