"""Calibration kernel: a fixed piece of work that tracks the host's speed.

The benchmark's host runs the same code at speeds up to ~1.9x apart, in
phases that last from seconds to minutes and affect whole runs.  Timing
this kernel next to every operation measures the speed of the moment, and
times are reported scaled to the kernel's reference speed::

    reported = measured * CAL_REFERENCE_S / kernel seconds around the call

The kernel does the kind of work qwrng spends its time on today, without
calling qwrng, so that a change to qwrng never moves it: a walk over a dict
of sites with a 2x2 complex coin product per site (interpreter work and
tiny numpy calls), and decimal text formatted and parsed line by line.
"""

from __future__ import annotations

import time

import numpy as np

#: Reference seconds of one :func:`kernel` call: about its median on a
#: 2-core Intel Xeon VM (Python 3.11.7, numpy 2.4.6).  It only sets the
#: unit; there, reported times read close to measured ones.
CAL_REFERENCE_S = 0.006

_STEPS = 30
_LINES = 8000
_COIN = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=np.complex128)


def kernel() -> float:
    """One unit of calibration work; returns a checksum of it."""
    amps = {0: np.array([1.0, 0.0], dtype=np.complex128)}
    for _ in range(_STEPS):
        moved: dict[int, np.ndarray] = {}
        for pos, amp in amps.items():
            v = _COIN @ amp
            moved.setdefault(pos - 1, np.zeros(2, dtype=np.complex128))[0] = v[0]
            moved.setdefault(pos + 1, np.zeros(2, dtype=np.complex128))[1] = v[1]
        amps = {pos: moved[pos] for pos in sorted(moved)}
    mass = sum(float(abs(a[0]) ** 2 + abs(a[1]) ** 2) for a in amps.values())
    text = "\n".join(str(i * 7919) for i in range(_LINES))
    return mass + sum(int(line) for line in text.splitlines())


def time_kernel() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
