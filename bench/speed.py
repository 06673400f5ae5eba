"""How fast the machine runs at a given moment, measured without ``mtvf``.

A shared 2-vCPU VM was seen to change speed by up to a factor of 1.5 in
phases of 5 to 60 seconds, with CPU time tracking wall time (no stolen
time) and no change in the program.  Raw run times then spread by 10-45%
(interquartile range over median) between runs of the same code.  The
benchmark therefore reads a fixed probe between items, whenever
``EVERY_S`` has passed since the last reading, and scales each item's
measured time by ``REF_MS / probe``, where ``probe`` is the median of the
readings taken from ``WINDOW_S`` before the item starts to ``WINDOW_S``
after it ends: a time at reference speed.  The probe runs
no ``mtvf`` code, so nothing a change to the program does can move it; a
program that gets slower still reads slower by the same factor.

The probe mixes the three kinds of work the workloads do, in about equal
shares: an interpreter loop (the solvers' Python, CSV formatting), numpy
calls on 3-vectors (batch-1 manifold kernels) and in-place numpy passes
over a 512 KiB array (10^4-node kernels).
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

EVERY_S = 0.1
WINDOW_S = 1.0
# about the probe's median reading, in a calm phase, on the 2-vCPU Xeon VM
# the benchmark was defined on
REF_MS = 1.0

_ARRAY = np.linspace(0.0, 1.0, 1 << 16)
_OUT = np.empty_like(_ARRAY)
_P = np.array([0.3, 0.5, 0.8])
_Q = np.array([0.6, -0.2, 0.7])


def probe_ms() -> float:
    """Median of three readings of the fixed probe, in ms."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(6_000):
            acc += i * i
        for _ in range(40):
            c = float(np.dot(_P, _Q))
            np.linalg.norm(_Q - c * _P)
            np.clip(c, -1.0, 1.0)
        # in place, so the probe's cost does not depend on how the
        # program under test has left the allocator
        for _ in range(3):
            np.multiply(_ARRAY, _ARRAY, out=_OUT)
            np.add(_OUT, 1.0, out=_OUT)
            np.sqrt(_OUT, out=_OUT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


class Speedometer:
    """Probe readings with their times, and the time the readings took."""

    def __init__(self):
        self.readings: list[float] = []
        self.stamps: list[float] = []
        self.spent_s = 0.0

    def read(self) -> None:
        t0 = time.perf_counter()
        self.readings.append(probe_ms())
        self.stamps.append(time.perf_counter())
        self.spent_s += self.stamps[-1] - t0

    def due(self) -> bool:
        return time.perf_counter() - self.stamps[-1] >= EVERY_S

    def scale(self, start: float, seconds: float) -> float:
        """Factor to reference speed for work timed from ``start`` (a
        ``perf_counter`` value) for ``seconds``.  Call it once a reading
        has been taken after the work."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, start + seconds + WINDOW_S)
        return REF_MS / statistics.median(self.readings[lo:hi])

    def timed(self, fn):
        """Run ``fn`` between two readings; returns (raw_s, scaled_s, result)."""
        self.read()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        self.read()
        return raw, raw * self.scale(t0, raw), out
