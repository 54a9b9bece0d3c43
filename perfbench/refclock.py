"""Wall and CPU time of a block, rescaled to a reference machine speed.

The host this benchmark was written on changes speed by 30-70% in phases
lasting seconds to minutes (other tenants share its cores), so raw seconds
from two runs differ by more than the changes the benchmark must resolve.
RefClock samples the machine's current speed *during* the timed block: an
interval timer interrupts the block every PERIOD_S and runs a fixed kernel
whose duration tracks how fast the core runs this kind of code at that
moment.  The block's times, minus the time spent in the kernel, are then
multiplied by the mean sampled speed (reference kernel time / kernel
time): seconds on a machine where the kernel takes its reference time.
The kernels never call the library, so a change to the library moves the
rescaled times as much as the raw ones.  Main thread only (SIGALRM).
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.01

_BREAKS = np.linspace(0.0, 1.0, 9)


@dataclass(frozen=True)
class _Part:
    lo: float
    hi: float


def _mixed() -> float:
    """The operations the library's scalar hot paths are made of, in fixed
    amounts: a numpy scalar searchsorted, a small frozen dataclass and
    Newton steps on a cubic."""
    acc = 0.0
    for i in range(1, 40):
        y = i / 40.0
        j = int(np.searchsorted(_BREAKS, y, side="left")) - 1
        part = _Part(y * 0.5, y)
        x = 0.5
        for _ in range(4):
            fx = ((0.1 * x + 0.2) * x + 0.6) * x - y
            x -= fx / ((0.3 * x + 0.4) * x + 0.6)
        acc += x + part.hi - part.lo + j
    return acc


def _arith() -> float:
    """A plain float-arithmetic loop."""
    acc = 0.0
    for i in range(1, 500):
        acc += math.sqrt(i) / (1.0 + i)
    return acc


# name -> (kernel, REF_KERNEL_S).  Contention slows different code by
# different amounts, so each timed block is sampled with the kernel that
# slows like it: "mixed" for scalar library code (the pure-arithmetic loop
# over-corrected those ops by up to 20%), "arith" for numpy bulk array
# work (the mixed kernel over-corrected it).  The reference times are
# roughly each kernel's time on an Intel Xeon at 2.1 GHz (Python 3.11.7,
# numpy 2.4) in its faster phase; any constants serve, as long as they
# never change.
KERNELS = {"mixed": (_mixed, 1.2e-4), "arith": (_arith, 7.0e-5)}


def _seconds(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed(name: str = "mixed", n: int = 30) -> float:
    """Mean speed over n back-to-back kernel samples (1.0 = reference)."""
    kernel, ref_s = KERNELS[name]
    return statistics.fmean(ref_s / _seconds(kernel) for _ in range(n))


class RefClock:
    """``with RefClock(kernel) as rc: ...`` then read ``rc.wall_s``,
    ``rc.cpu_s`` (raw, net of the sampling) and ``rc.ref(seconds)``."""

    def __init__(self, kernel: str = "mixed") -> None:
        self._kernel, self._ref_s = KERNELS[kernel]

    def __enter__(self) -> "RefClock":
        self.samples = [_seconds(self._kernel)]
        self._in_kernel = 0.0
        self._prev = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._w0, self._c0 = time.perf_counter(), time.process_time()
        return self

    def _on_alarm(self, signum, frame) -> None:
        dt = _seconds(self._kernel)
        self.samples.append(dt)
        self._in_kernel += dt

    def __exit__(self, *exc) -> bool:
        wall, cpu = time.perf_counter() - self._w0, time.process_time() - self._c0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._prev)
        self.wall_s = wall - self._in_kernel
        self.cpu_s = cpu - self._in_kernel
        self.samples.append(_seconds(self._kernel))
        # Mean speed, not median time: a core that alternates between fast
        # and slow gets the block's work done at its mean speed.
        self.scale = statistics.fmean(self._ref_s / k for k in self.samples)
        return False

    def ref(self, seconds: float) -> float:
        return seconds * self.scale
