"""Rescaling measured times to a fixed core speed.

The speed of a core on a shared host drifts by up to 2x over seconds to
minutes, as other tenants load it.  A fixed reference kernel (numpy and
Python only, no ppovm code) is timed before and after every timed region
and, every PERIOD_S inside it, from a SIGALRM handler.  The region's time
less the time spent in the handler, times REF_S over the mean kernel
time, is its time at the speed where the kernel takes REF_S.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_S = 1e-3
PERIOD_S = 0.02
_REF_A = np.random.default_rng(0).standard_normal((6, 6)) + 0j


def reference_s() -> float:
    """Seconds the reference kernel takes now: small numpy calls driven
    from Python, the mix that most ppovm code is made of.  It is not
    warmed up, so, like the job it brackets, it feels the cache misses
    another tenant causes."""
    t = time.perf_counter()
    acc = 0.0
    for _ in range(5):
        k = np.kron(_REF_A, _REF_A)
        acc += np.vdot(k, k).real + np.linalg.eigvalsh(k + k.conj().T)[-1]
        acc += sum(abs(z) for z in _REF_A.flat)
    return time.perf_counter() - t


class Clock:
    """``time.perf_counter`` less the time spent sampling the reference
    kernel, so spans and timed regions exclude the probe's own work."""

    def __init__(self):
        self.paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.paused


class SpeedProbe:
    """Context manager timing one region of the main thread.

    After exit, ``elapsed`` is the region's time on ``clock`` and
    ``reference`` the mean kernel time around and inside it; ``scale``
    converts a time measured then to reference speed.
    """

    def __init__(self, clock: Clock):
        self.clock = clock

    def _sample(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        self.samples.append(reference_s())
        self.clock.paused += time.perf_counter() - t

    def __enter__(self):
        self.samples = [reference_s()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = self.clock.now()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.elapsed = self.clock.now() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_s())
        self.reference = statistics.fmean(self.samples)
        return False

    def scale(self, seconds: float) -> float:
        return seconds * REF_S / self.reference
