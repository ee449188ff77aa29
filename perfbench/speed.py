"""Job times rescaled to the host's speed at the moment they ran.

On a shared virtual machine the host's speed switches between states for
seconds at a time: a ``check`` pass takes 0.13 s in one and 0.25 s in the
other, process CPU time moves with wall time, and a run of 15 s sees an
arbitrary mix of both.  A fixed calibration loop slows down by a similar
factor as interpreter-bound jobs; memory-bound numpy jobs slow down less, so
the rescaling removes most of the drift, not all of it.  While a run measures, the loop runs every ``INTERVAL_S`` (on
SIGALRM), and a job's time is reported as

    (wall time - time spent in the calibration loop during it)
        * REF_S / mean(loop times from WINDOW_S before the job to WINDOW_S after it)

i.e. the time the job would take on a host where the loop takes ``REF_S``.
The window always holds several loop times and is far shorter than the
host's states.  The loop uses only Python and numpy, never the package under
test, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Calibration loop time on an Intel Xeon 2.0 GHz vCPU in its faster state.
REF_S = 0.0037
INTERVAL_S = 0.1
WINDOW_S = 0.25


def calibration_loop() -> float:
    """A fixed mix of interpreter work (dict, int, float) and small numpy ops."""
    counts: dict[int, int] = {}
    acc = 0
    total = 0.0
    for i in range(10000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        acc += (i * 7) % 13
        total += i ** 0.5
    a = np.arange(20000, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * 1.0001 + 1.0)
    return total + acc + float(a[-1])


def calibrate() -> float:
    """Wall time of one calibration loop."""
    t0 = perf_counter()
    calibration_loop()
    return perf_counter() - t0


class Timing:
    """One measured region: wall seconds now, rescaled seconds after ``finish``."""

    def __init__(self, start: float):
        self.start = self.end = start
        self.wall = 0.0
        self.seconds = 0.0


class Speedometer:
    """Times regions of code in wall seconds and in rescaled seconds.

    Outside ``start``/``stop`` it is a plain wall clock (``seconds == wall``).
    Between them it samples the host on SIGALRM, so it must time code on the
    main thread, and ``finish`` then rescales every timing taken meanwhile.
    """

    def __init__(self):
        self._ends: list[float] = []      # when each calibration loop ended
        self._took: list[float] = []      # and how long it took
        self._timings: list[Timing] = []
        self._inside = 0.0
        self._previous = None
        self._running = False

    def _sample(self, *_) -> None:
        took = calibrate()
        self._ends.append(perf_counter())
        self._took.append(took)
        self._inside += took

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False
        self._sample()

    @contextmanager
    def timing(self):
        t = Timing(perf_counter())
        inside = self._inside
        try:
            yield t
        finally:
            t.end = perf_counter()
            t.wall = t.seconds = t.end - t.start - (self._inside - inside)
            if self._running:
                self._timings.append(t)

    def finish(self) -> None:
        """Rescale every timing taken between ``start`` and ``stop``; forget the samples."""
        for t in self._timings:
            lo = bisect.bisect_left(self._ends, t.start - WINDOW_S)
            hi = bisect.bisect_right(self._ends, t.end + WINDOW_S)
            t.seconds = t.wall * REF_S / statistics.fmean(self._took[lo:hi] or self._took)
        self._ends.clear()
        self._took.clear()
        self._timings.clear()
