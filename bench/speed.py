"""Time in reference seconds: wall time weighted by how fast the host runs us now.

On a shared host the speed at which this process runs swings by half or
more over phases of seconds. Timing only wall clock then measures the
neighbours. A fixed pure-Python kernel (data-dependent walks over a 256x256
table and integer arithmetic, the kind of work integra does on its group
tables) is timed every PERIOD_S from a SIGALRM
handler; each wall interval since the previous sample counts for
``REFERENCE_KERNEL_S / kernel time`` reference seconds, so a slow phase
counts for less. The kernel time used is the median of the last three
samples, which a single preempted sample does not move, and the interval
takes the mean of the factors at its two ends. Kernel time itself is left
out of every interval. One reference second is one wall second on a host
where the kernel takes REFERENCE_KERNEL_S.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
KERNEL_STEPS = 3000
REFERENCE_KERNEL_S = 0.0008

_clock = time.perf_counter
_table: list[list[int]] = []


def prepare() -> None:
    """Build the kernel's table (a fixed pseudo-random 256x256 table), once."""
    if _table:
        return
    v = 1
    for _ in range(256):
        row = []
        for _ in range(256):
            v = (v * 1103515245 + 12345) % 2147483648
            row.append((v >> 16) & 255)
        _table.append(row)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel; prepare() must have run."""
    start = _clock()
    x, acc, t = 0, 1, _table
    for y in range(KERNEL_STEPS):
        x = t[x][(y * 97 + acc) & 255]
        acc = (acc * 48271 + x) % 2147483647
    return _clock() - start


class SpeedClock:
    """A clock in reference seconds, advanced by kernel samples on SIGALRM."""

    def __init__(self):
        prepare()
        self._recent = [kernel_seconds() for _ in range(3)]
        self._factor = REFERENCE_KERNEL_S / statistics.median(self._recent)
        self._virtual = 0.0
        self._last = _clock()

    def _sample(self, signum=None, frame=None) -> None:
        start = _clock()
        self._recent = self._recent[1:] + [kernel_seconds()]
        factor = REFERENCE_KERNEL_S / statistics.median(self._recent)
        self._virtual += (start - self._last) * (self._factor + factor) / 2
        self._factor = factor
        self._last = _clock()

    def now(self) -> float:
        return self._virtual + (_clock() - self._last) * self._factor

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
