"""Machine-speed calibration for timings taken on a shared, noisy host.

On the 2-vCPU virtual machine this benchmark was built on, each vCPU runs at
one of two speeds about 1.6x apart, switching every few seconds to a minute,
independently per vCPU (load from other tenants of the host). Unscaled 30 s
runs of one workload spread by 12-26% (IQR over median). The benchmark times
this fixed numpy/Python kernel on each allowed vCPU between trials, moves the
process to the fastest, and scales each trial's time by REFERENCE_MS over the
kernel's time around it; scaled spreads over ten seeds were 1-5%. Scaled
times read as milliseconds on a vCPU that runs the kernel in REFERENCE_MS,
about its uncontended time on that machine.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

REFERENCE_MS = 1.0


class SpeedProbe:
    """Times a kernel of small complex matrix-vector products, reductions and
    Python-level loops, the mix the simulator's trials spend their time in."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._x = rng.standard_normal(64)
        self.cpus = sorted(os.sched_getaffinity(0))

    def _kernel_ms(self) -> float:
        start = perf_counter()
        x = self._x
        for _ in range(100):
            g = np.abs(self._a @ x) ** 2
            x = np.cumsum(g) / (1.0 + g.sum())
            total = 0.0
            for i in range(20):
                total += float(x[i])
        return (perf_counter() - start) * 1e3

    def kernel_ms(self) -> float:
        """The kernel's time on the current vCPU, best of two."""
        return min(self._kernel_ms(), self._kernel_ms())

    def move_to_fastest(self) -> float:
        """Pin the process to the allowed vCPU that runs the kernel fastest
        now, and return the kernel's time there."""
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = self.kernel_ms()
        fastest = min(times, key=times.get)
        os.sched_setaffinity(0, {fastest})
        return times[fastest]
