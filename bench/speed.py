"""Timings corrected for the speed of a shared, noisy machine.

On the machines this benchmark runs on, the same pure-Python work can
take twice as long from one second to the next, because other tenants
share the cores.  A repeated 38 ms chunk of ``compute`` calls measured
in blocks the length of one run spread by 35% between quartiles; divided
by the time of a fixed reference kernel run next to it, by 4%.

``SpeedClock`` samples that kernel from a SIGALRM handler every
``INTERVAL`` seconds while a run is in progress.  The handler runs in
the main thread between bytecodes, so the run stays single-threaded and
the kernel sees the same core in the same state as the code it
interrupts.  A timed interval is reported twice: raw (wall time less
the time spent in the handler) and corrected, that is multiplied by the
machine's speed over the interval, ``REFERENCE_S`` over the kernel's
time: the time the work would have taken had the kernel run at its
reference speed throughout.  The kernel does plain mpmath arithmetic at 60 digits and does
not touch qcgc.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import mpmath

INTERVAL = 0.05
# the kernel's median time, sampled this way, on the machine the baseline
# was recorded on (2-vCPU Xeon VM at 2.1 GHz, Python 3.11, mpmath 1.3
# without gmpy2) when it ran at its faster speed: corrected times are
# close to wall times on that machine when nothing else loads it
REFERENCE_S = 0.00042


def kernel():
    """Fixed mpmath work of about a millisecond."""
    with mpmath.workdps(60):
        x = mpmath.mpf(7) / 10
        total = mpmath.mpf(0)
        for k in range(1, 61):
            total += x ** k / k
    return total


class SpeedClock:
    """Samples the kernel on a timer and corrects intervals by it."""

    def __init__(self):
        self.times = []         # start of each kernel sample
        self.costs = []         # its duration
        self.stolen = 0.0       # total time spent in samples
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        # a collection triggered by the interrupted code's garbage is that
        # code's cost, not a sign of a slow machine
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            cost = time.perf_counter() - start
            self.times.append(start)
            self.costs.append(cost)
            self.stolen += cost
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def start(self):
        """A mark to pass to ``stop``."""
        return time.perf_counter(), self.stolen

    def stop(self, mark):
        """(raw, corrected) seconds since ``mark``."""
        start, stolen = mark
        end = time.perf_counter()
        raw = end - start - (self.stolen - stolen)
        return raw, raw * self.speed_over(start, end)

    def speed_over(self, start, end):
        """Mean speed, relative to the reference, over [start, end].

        Samples are evenly spaced in time, so their mean is a time
        average; speed can switch between regimes within a long call,
        which a median would not follow.  A short call with fewer than
        three samples inside takes the median of those within one
        interval of it, or of the nearest ones.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo >= 3:
            return statistics.fmean(REFERENCE_S / c for c in self.costs[lo:hi])
        lo = bisect.bisect_left(self.times, start - INTERVAL)
        hi = bisect.bisect_right(self.times, end + INTERVAL)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return REFERENCE_S / statistics.median(self.costs[lo:hi])

    def speed(self):
        """Median machine speed over the run, relative to the reference."""
        return REFERENCE_S / statistics.median(self.costs)
