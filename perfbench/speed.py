"""Machine-speed probe: scales measured seconds to a reference speed.

The benchmark runs on shared machines whose speed drifts by a fifth or
more over minutes, so the same code reads differently from one run to
the next.  The probe times a fixed pure-Python kernel, which uses no
repository code, many times during a run, and a time figure is scaled
by ``REFERENCE_S / median kernel time`` measured near it: a pass that
ran while the machine was slow is scaled down by as much as the kernel
slowed.  A change to the program moves the figures; the kernel does
not depend on it.

Kernel time is excluded from every interval timed with
:meth:`SpeedProbe.clock`, so sampling does not lengthen the figures.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

#: Seconds one kernel takes at the reference speed: a round figure for
#: its median on the two-core x86-64 virtual machine the benchmark was
#: sized on (1.5-2.2 ms, with that machine's speed at the time).
REFERENCE_S = 0.0020
#: Samples a scale factor is taken over at least.
MIN_SAMPLES = 30
#: Kernel samples a quiet gap between passes takes.
GAP_SAMPLES = 40


def _mix(acc: int, value: int) -> int:
    return ((acc << 1) ^ value) & 0xFFFFFFFF


def kernel(steps: int = 4000) -> int:
    """Interpreter-bound work of a fixed size: loads, stores, small
    integer arithmetic and calls, allocating nothing that outlives it."""
    table = [0] * 256
    acc = 0
    for i in range(steps):
        slot = (acc ^ i) & 255
        table[slot] = (table[slot] + i) & 0xFFFF
        acc = _mix(acc, table[slot])
    return acc


class SpeedProbe:
    """Kernel samples of one process and a clock that skips them."""

    def __init__(self) -> None:
        #: ``(clock() at the sample, kernel seconds)``
        self.samples: list[tuple[float, float]] = []
        self._paused = 0.0

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent sampling."""
        while True:
            paused = self._paused
            now = time.perf_counter()
            if paused == self._paused:  # no sample ran in between
                return now - paused

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            took = time.perf_counter() - start
            self.samples.append((start - self._paused, took))
            self._paused += time.perf_counter() - start

    @contextmanager
    def sampling(self, interval_s: float = 0.1):
        """Take a sample every ``interval_s`` seconds from a timer signal.

        Only for single-threaded work: the handler runs in the main
        thread between two bytecodes of whatever the program is doing.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float, at_least: int = MIN_SAMPLES) -> float:
        """Reference speed over the speed sampled in ``[start, end]``
        (clock seconds), or over the ``at_least`` samples nearest to it
        when fewer fall inside."""
        if not self.samples:
            raise RuntimeError("the speed probe took no samples")

        def distance(sample: tuple[float, float]) -> float:
            return max(start - sample[0], sample[0] - end, 0.0)

        near = sorted(self.samples, key=distance)
        inside = [s for s in near if distance(s) == 0.0]
        chosen = inside if len(inside) >= at_least else near[:at_least]
        return REFERENCE_S / statistics.median(took for _, took in chosen)
