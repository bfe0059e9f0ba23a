"""Reference-speed clock for benchmark jobs.

The CPUs this benchmark runs on may change speed by up to 1.7x for
seconds at a time (a shared host: CPU time equals wall time, the core
itself runs slower).  A 60-second job's wall time then depends on how much
of it fell into slow stretches, not on the program.

SpeedMeter times a fixed calibration loop of exact fraction arithmetic,
which does not use the package, every INTERVAL_S of wall time (SIGALRM).
ref(t0, t1) converts a wall-clock interval into reference seconds: each
stretch between two samples is scaled by REF_S / (loop time of the sample
that ends it), the median of that sample and its neighbours, and the
meter's own time is left out.  So a stretch spent at the speed where one
calibration loop takes REF_S counts as its wall length, and a stretch at
half that speed counts half.  A program change moves reference seconds
as it moves wall time; a machine speed change does not.

REF_S only fixes the unit; it was set near the loop's time at the faster
of the two speeds seen on the 2-vCPU Xeon VM the baseline was recorded
on.  The correction is not exact: on that machine five props-n7 jobs read
within 4.5% of each other in reference seconds while their wall times
spread over 1.4x.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_right
from fractions import Fraction
from statistics import median

INTERVAL_S = 0.05
REF_S = 4.0e-4


def calibration_loop() -> Fraction:
    """Fixed stdlib work of the kind the package does: exact fractions."""
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, 60):
        acc += x * i
        x = Fraction(i, 7) - x
    return acc


class SpeedMeter:
    """Samples the calibration loop while the process runs."""

    def __init__(self) -> None:
        self.enters: list[float] = []  # monotonic time a sample began
        self.exits: list[float] = []  # ... and ended
        self.loop_s: list[float] = []  # calibration loop seconds

    def start(self) -> SpeedMeter:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_) -> None:
        t_in = time.monotonic()
        t0 = time.perf_counter()
        calibration_loop()
        self.loop_s.append(time.perf_counter() - t0)
        self.enters.append(t_in)
        self.exits.append(time.monotonic())

    def _scale(self, k: int) -> float:
        """REF_S over the loop time of sample k, median of k-1..k+1."""
        k = min(max(k, 0), len(self.loop_s) - 1)
        return REF_S / median(self.loop_s[max(k - 1, 0) : k + 2])

    def ref(self, t0: float, t1: float) -> float:
        """Reference seconds in the wall interval [t0, t1] (monotonic).

        The stretch after the latest sample is scaled by that sample."""
        total = 0.0
        k = bisect_right(self.exits, t0)  # first sample ending after t0
        start = t0
        while start < t1:
            if k < len(self.enters):
                end = min(self.enters[k], t1)
                total += max(end - start, 0.0) * self._scale(k)
                start = max(start, self.exits[k])
            else:
                total += (t1 - start) * self._scale(k)
                break
            k += 1
        return total

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1]."""
        return self.ref(t0, t1) / (t1 - t0) if t1 > t0 else self._scale(len(self.loop_s))
