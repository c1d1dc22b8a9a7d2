"""The machine's current speed, read from fixed reference work.

Shared hosts change speed by up to a half, in phases of seconds to minutes,
and such a phase moves every timing of a run together.  The benchmark
therefore times fixed reference work, which runs no engine code, between its
timed operations and scales the run's times by a reference time over the
typical time of that work: a timing reads as it would on a machine that does
the reference work in the reference time.  A change to the engine moves the
scaled timings as much as the raw ones; a change of the machine's speed
moves both the reference and the operation, and cancels.

Work in the benchmark's own process is scaled by a loop of plain interpreter
work.  Work in a fresh interpreter (the command-line workload and every
set-up probe) is scaled by the start of a bare interpreter, the floor no
engine change can move: starting processes follows the machine's speed in
its own way, which the loop follows poorly.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import Callable

LOOP_S = 0.015  # about the loop's median time on a 2-vCPU Xeon shared with other work
START_S = 0.075  # about the median start of a bare interpreter there
EVERY_S = 0.25  # timed work between two readings


def reference_loop() -> int:
    """Dict, tuple and string work, then calls on small objects (exact fractions).

    Of the loops tried, the two parts together followed the speed of the
    in-process workloads most closely; each alone followed some of them worse.
    """
    table: dict = {}
    total = 0
    for i in range(4000):
        key = (i & 255, "k%d" % (i & 63))
        table[key] = table.get(key, 0) + 1
        total += sum(1 for bit in (i, i >> 1, i >> 2) if bit & 1)
    for _ in range(5):
        harmonic = Fraction(0)
        for i in range(1, 300):
            harmonic += Fraction(1, i)
        total += harmonic.denominator & 1
    return total


def loop_reading() -> float:
    """Seconds the loop takes, with the collector off so that garbage the workload left does not count."""
    gc.disable()
    try:
        start = perf_counter()
        reference_loop()
        return perf_counter() - start
    finally:
        gc.enable()


def start_reading() -> float:
    """Seconds a bare interpreter takes to start and exit."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=60, check=True)
    return perf_counter() - start


class Gauge:
    """Readings of one kind of reference work, taken between the timed operations of one run."""

    def __init__(self, reading: Callable[[], float], reference_s: float) -> None:
        self.reading = reading
        self.reference_s = reference_s
        reading()  # warm-up
        self.readings: list[float] = []
        self.weights: list[float] = []

    @classmethod
    def loop(cls) -> Gauge:
        return cls(loop_reading, LOOP_S)

    @classmethod
    def start(cls) -> Gauge:
        return cls(start_reading, START_S)

    def read(self, weight: float = 1.0) -> None:
        """Take a reading that stands for ``weight``, the timed work since the last one."""
        self.readings.append(self.reading())
        self.weights.append(weight)

    def typical_s(self) -> float:
        """The harmonic mean of the readings, each weighted by the timed work it stands for.

        The run's operations per second follow its mean speed over the timed
        work, which is one over this mean; the median over-corrected runs that
        were fast for only part of their length.  A reading slowed by a stray
        pause weighs little.
        """
        return statistics.harmonic_mean(self.readings, self.weights)

    def scale(self) -> float:
        """The factor that turns the run's times into times at the reference speed.

        One factor for the whole run: scaling each operation by the readings
        nearest it spread wider across runs, since a single reading is noisy.
        """
        return self.reference_s / self.typical_s()
