"""Host-speed probe: scale measured times to a reference host speed.

The small shared hosts this benchmark runs on switch between a fast and
a ~1.5x slower phase every few seconds, for reasons outside the
process (CPU time slows exactly as much as wall time does).  Left raw,
that switching sets most of the run-to-run spread.

A :class:`SpeedProbe` times a fixed pure-Python loop every ``EVERY_S``
seconds (from a ``SIGALRM`` handler, so inside long operations too) and
whenever asked.  A measured interval is scaled by
``REFERENCE_S / probe``, where *probe* is the mean loop time of the
samples taken in and around it: the result is the time the interval
would have taken on a host that runs the loop in ``REFERENCE_S``.  A
change that makes the program faster or slower moves the scaled time;
the host changing speed moves the loop time as well, and cancels.

This module imports nothing heavy, so ``run.py`` can probe before it
imports the program.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

#: Iterations of the probe loop (a few milliseconds).
LOOP = 40_000
#: Interval of the periodic samples (seconds).
EVERY_S = 0.05
#: The loop's time on the reference host: a 2-vCPU Xeon VM in its fast
#: phase.  Scaled times are in seconds of that host.
REFERENCE_S = 0.0031


def spin() -> int:
    """The probe loop: integer arithmetic in the interpreter."""
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


class SpeedProbe:
    """Loop-time samples over the run, and the scale they imply."""

    def __init__(self) -> None:
        #: (start, end) of every probe loop, in ``perf_counter`` time;
        #: samples never overlap, so both columns are sorted.
        self.samples: List[Tuple[float, float]] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            spin()
            self.samples.append((t0, time.perf_counter()))
        finally:
            self._busy = False

    def start(self) -> None:
        """Sample every ``EVERY_S`` seconds until :meth:`stop`."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """``REFERENCE_S`` over the mean loop time of the samples from
        the last one to end by *t0* to the first one to start at or
        after *t1*."""
        if not self.samples:
            raise ValueError("no probe samples taken")
        lo = max(0, bisect.bisect_right(self.samples, t0, key=lambda s: s[1]) - 1)
        hi = min(len(self.samples), bisect.bisect_left(self.samples, t1, key=lambda s: s[0]) + 1)
        window = self.samples[lo:hi]
        loop_s = sum(b - a for a, b in window) / len(window)
        return REFERENCE_S / loop_s

    def scaled(self, t0: float, t1: float) -> float:
        """The interval ``[t0, t1]``, less the probe samples taken inside
        it, in reference-host seconds."""
        first = bisect.bisect_left(self.samples, t0, key=lambda s: s[0])
        last = bisect.bisect_right(self.samples, t1, key=lambda s: s[1])
        inside = sum(b - a for a, b in self.samples[first:last])
        return (t1 - t0 - inside) * self.scale(t0, t1)
