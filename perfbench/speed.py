"""Scaling wall times to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third and more within seconds, so raw wall times of the same code spread
more between runs than the changes they are meant to show. A small fixed
calibration kernel, independent of paucopt, is timed ``BRACKET`` times
before and after each timed section and, from a SIGALRM handler, every
``INTERVAL_S`` during it. The section's wall time, less the time spent in
the handler, is multiplied by

    REFERENCE_S / (mean kernel time over the samples of that section)

which reads as "seconds on a machine where the kernel takes REFERENCE_S".
A change to paucopt moves the scaled time as it moves the wall time; a
change in the machine's speed moves kernel and section alike and cancels.
Kernel samples taken only before and after a two-second section do not
follow the speed inside it; samples taken within it do. The kernel mixes
the kinds of work the workloads do: interpreted Python, many tiny numpy
calls, sorting and searching a 3e4-element array, and passes over a
2e5-element array.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# About the kernel's time on a 2-vCPU KVM guest; only ratios of scaled
# times are compared, so the constant just keeps them near wall seconds.
REFERENCE_S = 0.010
INTERVAL_S = 0.1
BRACKET = 3

_rng = np.random.default_rng(0)
_SMALL_X = _rng.standard_normal((256, 5))
_SMALL_W = _rng.standard_normal((5, 8))
_MID = _rng.standard_normal(30_000)
_LARGE = _rng.standard_normal(200_000)


def kernel() -> float:
    acc = 0.0
    for i in range(20_000):
        acc += math.sqrt(i) * 0.5
    for _ in range(500):
        acc += float(np.maximum(_SMALL_X @ _SMALL_W, 0.0).sum())
    for _ in range(5):
        ordered = np.sort(_MID)
        acc += float(np.searchsorted(ordered, _MID[:1_000], side="left").sum())
    for _ in range(5):
        acc += float((_LARGE * 0.5 + 1.0).sum())
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Gauge:
    """Times sections of the run and scales them to the reference speed."""

    def __init__(self) -> None:
        kernel()                                # warm caches before timing
        self.kernel_s: list[float] = []         # every sample, for the record
        self._samples: list[float] = []
        self._paused = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(kernel_seconds())
        self._paused += time.perf_counter() - t0

    def measure(self, fn, sample: bool = True):
        """Run ``fn()``; return its result, or the exception it raised, its
        wall time, and the factor that scales a time taken in it.

        With ``sample`` false the kernel runs only before and after ``fn``,
        so that spans recorded inside it hold none of the kernel's time.
        """
        self._samples = [kernel_seconds() for _ in range(BRACKET)]
        self._paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm) if sample else None
        t0 = time.perf_counter()
        try:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            result = fn()
        except Exception as exc:                # the caller counts it as failed
            result = exc
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - t0 - self._paused
        self._samples += [kernel_seconds() for _ in range(BRACKET)]
        self.kernel_s += self._samples
        return result, seconds, REFERENCE_S * len(self._samples) / sum(self._samples)
