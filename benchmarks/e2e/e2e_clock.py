"""Wall time in reference seconds: the benchmark's clock on a shared host.

The benchmark runs on a few vCPUs of a shared host, whose speed for a
single thread moves by up to 1.6x within seconds as other tenants come and
go, with no steal time the guest could see.  Wall time alone then measures
the neighbours as much as the program, in every workload alike.

:class:`HostClock` measures the host's speed while the program runs.  A
``SIGALRM`` interval timer interrupts the process every ``PERIOD_S`` and
times a fixed loop (``_spin``) in the handler; the handler runs between
bytecodes of the main thread, on the same vCPU as the work.
:meth:`HostClock.ref_seconds` turns a wall interval into reference seconds:
the interval less the handler's own time, scaled by the host's speed, which
is ``REF_SPIN_S`` over the median spin time sampled in and around the
interval, to the power ``SPEED_EXPONENT``.  A reference second is a second
of a host on which the spin takes ``REF_SPIN_S``, about its time on a quiet
2-vCPU Xeon VM, so on such a host the two readings agree.

The spin is pure interpreter work on a few cached integers, so nothing the
program does to its own memory or caches changes the spin's time; only the
host's load does.

The clock sees only the process it runs in: interval timers are not
inherited across ``fork``, and work done on another core is not sampled.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

__all__ = ["HostClock", "PERIOD_S", "REF_SPIN_S", "SPEED_EXPONENT"]

PERIOD_S = 0.025
"""Interval between speed samples, in wall seconds."""
SPIN_ITERATIONS = 5000
REF_SPIN_S = 300e-6
"""Time of one ``_spin`` on the reference host."""
SPEED_EXPONENT = 1.25
"""On a busy host the program's work slows a little more than the spin,
most likely because the neighbours also contend for caches: by the spin's
slowdown to about this power.  Chosen over ten seeds of every workload on
the 2-vCPU VM, and checked on ten more."""
MIN_SAMPLES = 9
"""An interval with fewer samples borrows the nearest ones around it."""


def _spin() -> int:
    s = 0
    for i in range(SPIN_ITERATIONS):
        s += i * i
    return s


class HostClock:
    """Samples the host's speed between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        # Arrays, not lists of tuples: appending in the handler allocates
        # no object the cyclic collector tracks.
        self._starts = array("d")
        self._ends = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _spin()
        self._starts.append(start)
        self._ends.append(time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @property
    def samples(self) -> int:
        return len(self._starts)

    def speed(self, t0: float, t1: float) -> float:
        """Host speed over ``[t0, t1]`` (``perf_counter`` readings): 1 on
        the reference host, below 1 on a slower one.  A wall second of
        work counts as this many reference seconds."""
        starts = self._starts
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(starts))
        if hi == lo:
            return 1.0
        spin_s = statistics.median(self._ends[j] - starts[j] for j in range(lo, hi))
        return (REF_SPIN_S / spin_s) ** SPEED_EXPONENT

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds the work done in ``[t0, t1]`` took.

        Samples are taken synchronously in the measured thread, so each
        lies wholly inside or outside the interval; those inside are
        subtracted before scaling.
        """
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        sampling = sum(self._ends[j] - self._starts[j] for j in range(lo, hi))
        return (t1 - t0 - sampling) * self.speed(t0, t1)
