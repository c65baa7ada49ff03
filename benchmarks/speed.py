"""Machine-speed calibration for the timings.

On a shared machine the speed of one Python thread drifts by a factor of
up to two within a minute, as other tenants come and go: on the machine
this benchmark was built on, four back-to-back `mukai` calls on (P^1)^10
took 9.6 s to 13.3 s. So a background thread of the benchmark times a small
fixed piece of pure-Python work (the unit) every PERIOD_S seconds, and every
timing is reported in reference seconds: its wall-clock time, less the time
the sampler took from it, times the mean over nearby samples of
REFERENCE_S / (unit time). Those four calls then read 18.8 s to 19.9 s
(against a 0.6 ms reference). The benchmark keeps itself on one CPU
(`pin`), so that the sampler measures the CPU the program runs on. Raw
wall-clock times stay in each run's detail output.

The unit is the benchmark's own code and shares nothing with the program,
so a change to the program cannot move it.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import threading
import time
from fractions import Fraction
from itertools import combinations

# The unit's time at the reference speed, about its median on the machine
# the benchmark was built on (x86-64 Xeon, 2 CPUs shared with other tenants).
REFERENCE_S = 0.0004
PERIOD_S = 0.02
# Samples taken back to back around an interval the sampler cannot cover.
BURST = 12
# Samples this close to an operation also count towards its speed, so that
# operations shorter than the period have some.
PAD_S = 0.25


ALL_CPUS = os.sched_getaffinity(0)


def pin() -> None:
    """Keep the calling thread, and the threads it starts later, on one CPU,
    so that the sampler measures the CPU the program runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@contextlib.contextmanager
def unpinned():
    """Let the calling thread, and processes it forks, use every CPU the
    process may use."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def unit() -> int:
    """Exact rational elimination and small-set hashing, the two kinds of
    work the program spends its time on."""
    rows = [[Fraction((3 * i + 5 * j) % 7 - 3) for j in range(5)]
            for i in range(4)]
    for col in range(4):
        piv = next((r for r in range(col, 4) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col]
        rows[col] = [x / inv for x in rows[col]]
        for r in range(4):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return len({frozenset(c) for c in combinations(range(10), 3)})


class Sampler:
    """Times the unit every PERIOD_S seconds on a background thread while
    running. Stop it before anything forks: a forked child gets no copy of
    the thread, and a lock it held would stay held there."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.burst(1)

    def burst(self, count: int) -> None:
        """Take `count` samples now, on the calling thread."""
        for _ in range(count):
            start = time.perf_counter()
            unit()
            self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """From wall-clock to reference seconds, for an interval."""
        stolen = sum(s for t, s in self.samples if start <= t < end)
        near = [s for t, s in self.samples
                if start - PAD_S <= t < end + PAD_S]
        if not near:
            raise RuntimeError(f"no speed sample near {start:.3f}..{end:.3f}")
        speed = statistics.fmean(REFERENCE_S / s for s in near)
        return (1 - stolen / (end - start)) * speed
