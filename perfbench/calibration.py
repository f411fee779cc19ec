"""Machine-speed calibration for timings taken on a shared, noisy machine.

Other load on the machine slows every CPU-bound Python loop alike, and by a
lot: on a 2-vCPU cloud host the same check took from 40 ms to 65 ms in runs
minutes apart. A fixed pure-Python kernel, timed right after every check,
slows by the same factor. Dividing a phase's times by that factor gives
seconds at reference speed: the time the code would take when the kernel
runs in ``KERNEL_REF_S``. In five 12 s runs of ``guard-stress`` on that host
the raw median check time spread by 27%; the calibrated one by 4.5%.

The kernel is benchmark code, so no change to ``iacompat`` moves it.
"""
from __future__ import annotations

from time import perf_counter

KERNEL_REF_S = 0.002  # the kernel's median time on the host that defined the benchmark


def kernel() -> list:
    """Dict, tuple and string work, the mix a check spends its time on."""
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, str(i % 13))
        counts[key] = counts.get(key, 0) + len(key[1])
    return sorted(counts.items())


class Speed:
    """Kernel timings sampled through one phase of measurement."""

    def __init__(self) -> None:
        self.busy = 0.0
        self.samples = 0

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        self.busy += perf_counter() - t0
        self.samples += 1

    @property
    def factor(self) -> float:
        """How many times slower than reference speed the phase ran."""
        return self.busy / self.samples / KERNEL_REF_S
