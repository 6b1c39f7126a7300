"""Machine-speed sampling, so timings on a shared machine can be compared.

On a small shared machine one core's speed changes with what runs beside
it: a fixed kernel of interpreter, Fraction, heap and small-array work
takes about 3 ms in one stretch and 4.5 ms in the next, flipping every few
seconds, with slower and faster stretches that last minutes.  A busy
process on the other core moves it the same way.

The kernel must therefore never run beside the measured program.  It runs
only when the whole program is paused:

- ``sample`` runs a batch while the program is idle (between the fresh
  interpreters of ``setup_s``);
- during the question loop a SIGALRM handler fires every SAMPLE_EVERY_S.
  It runs the kernel only when this process has one thread and no child
  process.  The handler then holds the only thread, so all of the program
  is paused while the kernel runs, and its time is taken out of the
  question it interrupted.  When the program has started threads or
  processes, the handler runs nothing and records the skip.

A measurement is scaled to the reference machine speed by

    scaled = raw * (KERNEL_REF_S / median(kernel samples within STRETCH_S of it)) ** SPEED_EXPONENT

The kernel reacts to a speed stretch about twice as strongly as fabflow
does: over ten ``plan`` runs its median moved 1.5x between fast and slow
stretches while the same ``plan_fleet`` call moved 1.25x.  Full scaling
(exponent 1) then overcorrected, leaving a 20% spread of ``plan``
``wall_s``, as wide as raw times; the square root left 8%, and 6% and 4%
on ``dispatch`` and ``queries``.

No thread or process is started.
"""
from __future__ import annotations

import bisect
import os
import signal
import statistics
import time
from fractions import Fraction
from heapq import heappop, heappush

KERNEL_REF_S = 0.004        # the kernel's median on the machine the baseline was recorded on
SAMPLE_EVERY_S = 0.5
SAMPLE_BATCH = 3
STRETCH_S = 2.0             # shorter than the few seconds a speed stretch lasts
SPEED_EXPONENT = 0.5        # fabflow's sensitivity to a speed stretch relative to the kernel's


def kernel_seconds() -> float:
    """Seconds for one run of the fixed calibration kernel."""
    import numpy as np

    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(7000):
        table[i % 101] = table.get(i % 101, 0) + i
        acc ^= i * 31 % 17
    total = Fraction(0)
    for i in range(1, 170):
        total += Fraction(i % 13, 1000)
    heap: list[int] = []
    for i in range(1300):
        heappush(heap, (i * 7919) % 1000)
    while heap:
        heappop(heap)
    a = np.linspace(0.0, 1.0, 8)
    for _ in range(170):
        a = np.clip(a - 0.01, 0.0, 1.0)
        acc += int(a.sum())
    return time.perf_counter() - t0


def program_paused() -> bool:
    """True when this process has one thread and no child process."""
    try:
        tasks = os.listdir("/proc/self/task")
        if len(tasks) != 1:
            return False
        with open(f"/proc/self/task/{tasks[0]}/children", encoding="ascii") as fh:
            return not fh.read().strip()
    except OSError:  # no /proc: never sample inside the program
        return False


class SpeedSampler:
    """Kernel samples, each stamped with the time its batch started."""

    def __init__(self):
        self.times: list[float] = []
        self.kernels: list[float] = []
        self.stolen = 0.0          # seconds the handler took from the program so far
        self.skipped = 0           # alarms that found the program not paused

    def sample(self, batch: int = SAMPLE_BATCH) -> None:
        """Run the kernel `batch` times; call only while the program is idle."""
        t = time.perf_counter()
        for _ in range(batch):
            self.kernels.append(kernel_seconds())
            self.times.append(t)

    def _alarm(self, signum, frame):
        if not program_paused():
            self.skipped += 1
            return
        t0 = time.perf_counter()
        self.sample(1)
        self.stolen += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Factor from the machine speed sampled within STRETCH_S of [t0, t1] to the reference speed.

        Falls back to the nearest batch on either side when none is that close.
        """
        lo = bisect.bisect_left(self.times, t0 - STRETCH_S)
        hi = bisect.bisect_right(self.times, t1 + STRETCH_S)
        if lo == hi:
            before = bisect.bisect_right(self.times, t0)
            after = bisect.bisect_left(self.times, t1)
            first = self.times[before - 1] if before else t0
            last = self.times[after] if after < len(self.times) else t1
            lo = bisect.bisect_left(self.times, first)
            hi = bisect.bisect_right(self.times, last)
        return (KERNEL_REF_S / statistics.median(self.kernels[lo:hi])) ** SPEED_EXPONENT

    def summary(self) -> dict:
        return {
            "samples": len(self.kernels),
            "skipped": self.skipped,
            "median": statistics.median(self.kernels),
            "reference": KERNEL_REF_S,
        }
