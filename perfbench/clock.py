"""Operation timing in reference seconds.

The benchmark runs on shared machines whose speed drifts. On a 2-vCPU Xeon
VM, eval rounds took from 0.63 s to 1.57 s within five minutes (BLAS
unpinned), in slow and fast phases of 10 to 40 s, while the process's CPU
time equalled its wall time; over ten 30 s runs per workload, wall-clock
throughput spread by 17-21% (quartile distance over median), more than any
useful regression bound.

So every timed operation is bracketed by a fixed reference kernel, which
does not touch the package, and the operation's wall time is scaled by how
fast the kernel ran next to it:

    reference seconds = wall seconds * REF_SECONDS / mean(kernel before, kernel after)

A change that makes the package faster or slower moves its operations and
not the kernel, so it shows in reference seconds as in wall seconds (a
slowdown injected into the scan showed undiminished when it was pure
computation, and about one point smaller when it churned memory). A
machine-wide slowdown moves both and cancels: in the same ten runs the
spread in reference seconds was 3.5-4.7%. Under heavier contention it
cancels only in part; README.md gives the figures. Wall times are printed
too.
"""

from __future__ import annotations

import time

import numpy as np

# Time of one `reference_kernel` call on an uncontended core of the machine
# the bounds were set on (Intel Xeon, 2 vCPUs, numpy 2.4, OpenBLAS, 1 thread).
REF_SECONDS = 0.040


def reference_kernel():
    """Softplus over a quadrature-sized array, as in the compensator.

    Of three candidates timed next to eval and train rounds (BLAS
    unpinned), this
    memory-bound pass tracked their drift best (correlation of log times
    0.89 and 0.87), ahead of a Python loop of small-array operations (0.84,
    0.80) and Python object churn (0.84, 0.71)."""
    x = np.random.default_rng(0).normal(size=(64, 1024, 5))
    acc = 0.0
    for _ in range(3):
        acc += float(np.logaddexp(0.0, 0.3 * x).sum())
    return acc


def kernel_seconds():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Clock:
    """Times operations; `time` returns (result, wall seconds, reference seconds).

    Consecutive operations share the kernel run between them, so each
    operation costs one extra kernel run.
    """

    def __init__(self):
        self._last = None

    def time(self, fn, *args, **kwargs):
        if self._last is None:
            self._last = kernel_seconds()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        after = kernel_seconds()
        ref = wall * REF_SECONDS / (0.5 * (self._last + after))
        self._last = after
        return result, wall, ref


class WallClock:
    """Plain wall time, for the traced run: kernel runs between operations
    would sit outside every span."""

    def time(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        return result, wall, wall
