"""Host-speed sampling, so that timings can be rescaled to a nominal speed.

Other tenants of a shared host slow this process's core by up to about
1.9x, in bursts and phases that last from a fraction of a second to
minutes and that differ between cores.  A run of a minute can sit in one
slow phase throughout, so neither medians nor minima over the units of a
run are steady.  Instead, a timer interrupts each unit every ``INTERVAL_S``
and times a fixed pure-Python kernel that does not touch the program.  A
timed piece of the unit is then rescaled by the kernel's speed while it
ran:

    nominal_s = busy_s * NOMINAL_KERNEL_S * mean(1 / kernel_s)

where the mean runs over the kernel samples taken during the piece, or in
a window of ``WINDOW_S`` around a shorter piece, and ``busy_s`` excludes
the kernel's own time.  Because progress at slow-down ``s(t)`` runs at
``1 / s(t)``, the mean of the inverse kernel times is the right average for
a sum of work.  ``NOMINAL_KERNEL_S`` is the kernel time in the fast phases
of the reference host (2-vCPU Intel Xeon, Python 3.11.7), so nominal
seconds are close to the seconds that host gives without contention.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
# Pieces shorter than this are rescaled by the samples of a window this long
# around them, since one sample is noisy.
WINDOW_S = 0.1
NOMINAL_KERNEL_S = 0.14e-3


def kernel() -> float:
    """Fixed interpreter work: arithmetic, dict updates and calls."""
    acc, table = 0.0, {}
    for i in range(600):
        acc += (i * 7 % 13) * 0.5
        table[i & 63] = table.get(i & 63, 0) + abs(-i)
    return acc


class Sampler:
    """Times ``kernel`` on a timer signal for the life of a unit."""

    def __init__(self):
        self.samples = []  # [start, duration] per kernel run
        self.spent = 0.0   # total time inside the kernel

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def _tick(self, signum, frame):
        start = time.monotonic()
        kernel()
        duration = time.monotonic() - start
        self.samples.append([start, duration])
        self.spent += duration


def nominal(piece, samples) -> float:
    """Busy seconds of a ``[start, end, busy_s]`` piece, at nominal speed."""
    start, end, busy_s = piece[:3]
    pad = max(0.0, WINDOW_S - (end - start)) / 2.0
    starts = [s for s, _ in samples]
    lo = bisect.bisect_left(starts, start - pad)
    hi = bisect.bisect_right(starts, end + pad)
    if lo == hi:  # no sample inside: take the neighbours
        lo, hi = max(lo - 1, 0), min(hi + 1, len(samples))
    inverse = [1.0 / d for _, d in samples[lo:hi]]
    return busy_s * NOMINAL_KERNEL_S * sum(inverse) / len(inverse)
