"""How disturbed the host is: one fixed kernel, timed throughout a run.

The sandbox's CPUs change speed under the guest's feet, on every time
scale from milliseconds to tens of seconds (identical passes measured
1.40 s and 2.36 s; CPU time tracks wall time and steal reads 0, so the
guest cannot see why).  A whole 10 s run can sit in a slow phase, which
no choice among its own passes can undo.  The harness therefore times a
small fixed kernel every ``INTERVAL`` seconds of measured work and
reports every pass at the speed of a *reference host*, one on which the
kernel takes ``REFERENCE_KERNEL_S``:

    reported time = clocked time * REFERENCE_KERNEL_S / mean kernel time during the pass

The reference is what the kernel takes on the sandbox when nothing
disturbs it, so there the factor is 1 and the numbers are plain
wall-clock time; the clocked values are printed next to the reported ones.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

#: Seconds of measured work between two kernel samples.
INTERVAL = 0.025

#: Undisturbed kernel time on the sandbox (2-core Xeon 2.1 GHz guest,
#: CPython 3.11, NumPy 2.4): the median of runs in its fast phases.
REFERENCE_KERNEL_S = 3.4e-3

_PAGE = bytes(4096)
_LO = np.linspace(0.0, 1.0, 192).reshape(64, 3)
_HI = _LO + 0.1
_QUERY = np.array([0.3, 0.3, 0.3])
_HEAP = np.random.default_rng(0).random(1 << 19)  # 4 MB: larger than the private caches
_SCATTERED = np.random.default_rng(1).integers(0, len(_HEAP), size=20_000)


def _kernel() -> float:
    """The engine's instruction mix in miniature, none of its code.

    Plain interpreter arithmetic, dict and list building, small-array
    NumPy masks, a page checksum, and scattered reads over a few
    megabytes.  The slow phases hit these unequally (measured together:
    arithmetic x1.45, allocation x1.9, scattered reads x2.1, NumPy masks
    x2.4 while a small engine slowed x2.2), and the workloads mix them
    differently — ``explore`` leans on the interpreter, ``converged`` on
    NumPy — so the kernel holds about a quarter of each.
    """
    total = 0.0
    for round_no in range(100):
        mask = np.all((_LO <= _QUERY + 0.2) & (_HI >= _QUERY), axis=1)
        total += int(mask.sum())
        total += zlib.crc32(_PAGE) & 1
        table = {index: (index, float(index)) for index in range(40)}
        total += len([key for key in table if key & 1])
        for index in range(200):
            total += index
        if round_no % 10 == 0:
            total += float(_HEAP[_SCATTERED].sum())
    return total


class HostClock:
    """Collects kernel timings over a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times, now."""
        for _ in range(times):
            start = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - start)

    def factor_since(self, mark: int) -> float:
        """Reference-host seconds per clocked second, from the samples taken
        since ``mark`` (an earlier ``len(samples)``)."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples[mark:])
