"""The core's speed, sampled while the benchmark runs.

The machine this benchmark was built on shares its cores with other
tenants: the same task runs at one speed or at half of it, switching
within seconds, and CPU time moves with wall time.  A short fixed
``Fraction`` loop tracks that speed: its time divided into a task's time
stayed within a few percent while the raw task time doubled.  So a timer
signal runs the loop every ``EVERY_S`` seconds, and a task's wall time is
rescaled to the speed at which the loop takes ``REFERENCE_S``, using the
samples taken while the task ran (or, for a task shorter than the
interval, the samples on either side of it).  The sampler's own time is
subtracted from every task.  Raw times are kept beside the rescaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

EVERY_S = 0.05
ITERATIONS = 200
REFERENCE_S = 0.0005
_VALUES = tuple(Fraction(i % 7 - 3, i % 5 + 1) for i in range(64))


def calibration() -> float:
    """Seconds for a fixed Fraction loop, with the collector held off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(ITERATIONS):
            a = _VALUES[i & 63]
            table[i & 255] = a * _VALUES[(i * 7) & 63] + a
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Speedometer:
    """Samples the loop from SIGALRM while active; rescales intervals."""

    def __init__(self):
        self.loop: list = []
        self.stolen = 0.0
        self.tracer = None
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.loop.append(calibration())
        end = time.perf_counter()
        self.stolen += end - start
        if self.tracer is not None:
            self.tracer.add_span("bench.speed", start, end)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple:
        return time.perf_counter(), len(self.loop), self.stolen

    def scaled(self, start: tuple, end: tuple) -> tuple:
        """(raw, reference-speed) seconds between two marks, sampler excluded."""
        (t0, i0, s0), (t1, i1, s1) = start, end
        raw = (t1 - t0) - (s1 - s0)
        window = self.loop[i0:i1] or self.loop[max(i0 - 1, 0):i0 + 1]
        return raw, raw * REFERENCE_S / statistics.median(window)
