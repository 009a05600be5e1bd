"""Machine-speed probe that divides the host's slow phases out of task times.

On a shared host each vCPU alternates, within seconds, between a fast phase
and phases up to about 1.7 times slower, and the two vCPUs do so independently
(see bench/NOTES.md). A task of several seconds averages over a different mix
of phases on every run, so its wall time spreads by 20 to 40 % between runs of
the same code.

The probe runs a fixed kernel in the measuring thread itself, from a SIGALRM
handler every ``interval`` seconds of wall time (``INTERVAL_S`` by default),
and records how long the kernel took. A task's normalized time is its wall time, minus the time spent in the
handler, with each stretch scaled by ``REFERENCE_KERNEL_S`` over the kernel
time measured nearest to it. The kernel is bench code that imports nothing
from ``wdrc``, so a change to the program moves the normalized time as much
as it moves the wall time at a fixed host speed; only the host's speed is
divided out.
"""

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.1
KERNEL_STEPS = 30
# The kernel's time on the reference machine (2-vCPU Intel Xeon VM, numpy
# 2.4.6 with scipy-openblas 0.3.31 on one thread) in its fast phase, so that
# normalized times read as that machine's fast-phase wall time.
REFERENCE_KERNEL_S = 1.0e-3

_rng = np.random.default_rng(12345)
_N = 20
_A = 0.3 * _rng.standard_normal((_N, _N))
_PHI = 0.1 * np.eye(_N)
_EYE = np.eye(_N)
_Q = np.eye(_N)


def kernel():
    """A fixed Riccati-style iteration on 20 x 20 matrices: small dense solves
    and products with numpy call overhead, the mix the wdrc layers run."""
    P = _Q
    for _ in range(KERNEL_STEPS):
        P = _Q + _A.T @ np.linalg.solve(_EYE + P @ _PHI, P @ _A)
        P = 0.5 * (P + P.T)
    return P


class SpeedProbe:
    """Samples the kernel time while armed; ``normalized(a, b)`` converts a
    ``time.perf_counter`` interval into reference seconds."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.starts, self.ends = [], []
        self._busy = False
        self._previous = None

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_times(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def normalized(self, a, b):
        """Reference seconds of the work done in [a, b]. Each sample inside
        the interval stands for the stretch up to the midpoints between it and
        its neighbours; an interval with no sample inside uses the nearest."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        if lo >= hi:
            near = min(range(len(self.ends)),
                       key=lambda i: min(abs(self.starts[i] - b), abs(self.ends[i] - a)))
            return (b - a) * REFERENCE_KERNEL_S / (self.ends[near] - self.starts[near])
        total = 0.0
        left = a
        for i in range(lo, hi):
            k = self.ends[i] - self.starts[i]
            right = b if i == hi - 1 else 0.5 * (self.ends[i] + self.starts[i + 1])
            total += (right - left - k) * REFERENCE_KERNEL_S / k
            left = right
        return total
