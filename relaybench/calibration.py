"""Host-speed calibration: a fixed pure-Python kernel timed next to the work.

The benchmark runs on a shared host whose speed drifts by up to about 1.9x,
for seconds to minutes at a time, with no sign of it in the process's CPU
time or in the operating system's steal counter. A fixed kernel timed next to the work
slows by about as much as the work does. So the work's seconds scaled by
``NOMINAL_S`` over the kernel's time ("calibrated seconds") move far less
with the host than raw seconds do. The kernel is benchmark code, so no
change to relaysim can change it: at a given host speed, calibrated and raw
seconds move together.

Single-process work is bracketed piece by piece (``HostMeter``), in the same
process, so the kernel runs on the CPU the piece ran on. A command spread
over several processes lands on every CPU, and the CPUs can run at
different speeds at the same moment, so there the kernel runs pinned to
each CPU in turn (``kernel_s_per_cpu``) and the run is scaled by its mean.
"""

from __future__ import annotations

import heapq
import os
import time

KERNEL_STEPS = 60_000
# the unit of calibrated time: about the kernel's time on an undisturbed
# 2-CPU x86-64 host with Python 3.11, so that there calibrated seconds read
# close to raw ones
NOMINAL_S = 0.04


def kernel_s() -> float:
    """Seconds one run of the kernel takes: heap, dict and float work, in the
    proportions of an event loop, with a fixed operation count."""
    t0 = time.perf_counter()
    heap: list = []
    last: dict = {}
    acc = 0.0
    for i in range(KERNEL_STEPS):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0] * 0.5
        last[i & 1023] = acc
    return time.perf_counter() - t0


def kernel_s_per_cpu() -> list[float]:
    """One kernel time pinned to each CPU this process may use, in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return times


class HostMeter:
    """Runs the kernel between timed pieces of work.

    Make one right before the first piece; call ``scale()`` right after each
    piece and multiply the piece's raw seconds by what it returns.
    """

    def __init__(self, kernel=kernel_s) -> None:
        self._kernel = kernel
        self._last = kernel()

    def scale(self) -> float:
        """``NOMINAL_S`` over the mean kernel time just before and just after
        the piece timed since the previous call, or since the meter was made."""
        before, self._last = self._last, self._kernel()
        return 2.0 * NOMINAL_S / (before + self._last)
