"""Host-speed calibration: a fixed probe timed all through a measured run.

The benchmark shares its CPUs with other machines' work, and that work
slows it by tens of percent, in bursts and in drifts that last minutes.
Medians over one run cannot average a drift away, so every time the
end-to-end run reports is scaled to a reference host speed:

* a timer interrupts the measured process every :data:`INTERVAL_S` and
  runs :func:`probe`, a fixed pure-Python loop that calls nothing of
  ``repro``;
* the probe's own time is taken out of the measured span, and what is
  left is multiplied by :func:`host_speed`, :data:`REFERENCE_S` over
  the probe's mean wall time in that span.  CPU seconds are scaled by
  the same factor: the probe's CPU reading would count the OpenBLAS
  threads that happen to spin on the other CPU while it runs.

A change to ``repro`` does not run inside the probe, so it moves the
scaled time by the same share as the raw time.  Contention from outside
slows both the probe and the work, and is divided out as far as the two
slow alike; ``perfbench/README.md`` gives the measurements behind this
probe and what it leaves.  The raw figures are printed in the run's
context line next to the scaled ones.
"""

from __future__ import annotations

import signal
import time

#: The probe's time on an uncontended host of the reference machine (a
#: 2-vCPU Xeon VM at 2.0 GHz: 1.9-2.0 ms).  Reported times are times at
#: this probe speed.
REFERENCE_S = 0.002
#: Seconds between probes.  Each takes about 2 ms, so about 4% of a
#: measured run is probing; that time is subtracted from every span.
INTERVAL_S = 0.05
LOOPS = 25_000


def probe() -> int:
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return total


class HostProbe:
    """Runs :func:`probe` on ``SIGALRM`` and keeps running totals.

    ``totals`` is ``(probes, wall seconds, CPU seconds)``; it is replaced
    in one assignment, so a reading is never torn by a probe that fires
    while it is taken.  The difference of two readings is the window
    :func:`host_speed` reads.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.totals = (0, 0.0, 0.0)

    def _sample(self, *_) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        probe()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        count, wall_sum, cpu_sum = self.totals
        self.totals = (count + 1, wall_sum + wall, cpu_sum + cpu)

    def start(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # every window from the start holds one probe
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def window(before: tuple, after: tuple) -> list:
    """``[probes, wall, cpu]`` between two ``HostProbe.totals`` readings."""
    return [after[0] - before[0], after[1] - before[1], after[2] - before[2]]


def host_speed(probes: list) -> float:
    """The reference probe time over the mean probe time of a window
    ``[probes, wall, cpu]``: 1.0 on an uncontended reference host."""
    count, wall, _ = probes
    if count < 1 or wall <= 0:
        raise ValueError("no probe ran in the measured span")
    return REFERENCE_S * count / wall
