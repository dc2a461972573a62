"""Correct wall times for the shared host's drifting speed.

On the 2-core host used for the baseline the same pure-Python loop runs at
two speeds about 1.5x apart, switching every few seconds to minutes, and CPU
time slows with wall time (the slowdown is the core's, not stolen time).  A
30 s run therefore lands mostly in one phase or the other, and raw
time-to-verdict spread 15-20 % between runs of the same code.

A ``SpeedProbe`` samples the host's speed while an operation runs: a
profiling timer fires every ``PROBE_INTERVAL_S`` of CPU time, and its
handler times ``probe()``, a fixed loop of Fraction arithmetic that uses no
poissonkit code.  A few probes also run just before and just after the
operation, so that short operations get an estimate too.  An operation's corrected time is its wall
time, less the time its probes took, scaled by ``REFERENCE_PROBE_S`` over the
mean probe time: the time it would take on a host where ``probe()`` takes
``REFERENCE_PROBE_S``.  A change to the program moves the corrected time
exactly as it moves the wall time; a change in the host's speed mostly does
not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# probe() takes 0.2 to 0.3 ms on the 2-core host of the first baseline.
REFERENCE_PROBE_S = 0.0002
PROBE_INTERVAL_S = 0.01
BRACKET_PROBES = 8
# A probe slower than this many times the median was interrupted (a context switch).
OUTLIER_FACTOR = 3.0


def probe(n: int = 30) -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic.

    Fractions allocate and run Python-level code much as exact algebra does; on repeats of the
    same operation, this loop tracked the host's slow phases in the program's time better than
    a loop over small integers, which the slow phase hurts less than it hurts the program.
    The collector is off meanwhile, so that no collection of the program's objects is timed
    as a probe (and then subtracted from the program's time).
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(n):
        acc = acc * Fraction(i % 7 + 1, i % 5 + 3) + 1
        if acc.denominator > 10**12:
            acc = Fraction(1)
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


class SpeedProbe:
    """Host speed sampled around and during one timed stretch of code.

        speed = SpeedProbe()
        speed.start()
        t0 = time.perf_counter(); work(); wall = time.perf_counter() - t0
        speed.stop()
        seconds = speed.correct(wall)
    """

    def __init__(self):
        self.bracket: list[float] = []
        self.during: list[float] = []
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        self.during.append(probe())

    def start(self) -> None:
        self.bracket += [probe() for _ in range(BRACKET_PROBES)]
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.bracket += [probe() for _ in range(BRACKET_PROBES)]

    def factor(self) -> float:
        """REFERENCE_PROBE_S over the mean probe time; above 1 when the host ran faster than the reference."""
        samples = self.bracket + self.during
        limit = OUTLIER_FACTOR * statistics.median(samples)
        return REFERENCE_PROBE_S / statistics.fmean(s for s in samples if s <= limit)

    def correct(self, wall_s: float) -> float:
        """Wall time of the stretch between start() and stop(), less its probes, at reference speed."""
        return (wall_s - sum(self.during)) * self.factor()
