"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of one core drifts by 20-40 % over tens of
seconds, because other tenants contend for the same cores and caches. CPU
time drifts as much as wall time, so neither can be compared raw across
runs. The benchmark therefore times a fixed kernel, independent of the
package, between operations, and scales each operation's wall time by
``nominal kernel time / local kernel time``. A calibrated time is the time
the operation would take on a machine where the kernel takes its nominal
time. Each workload uses a kernel of its own kind of work: a dict-and-complex
loop for ``gates`` and ``wide-states``, calls on tiny numpy arrays for
``verify``, and a child that starts Python and imports numpy for ``cli``,
whose operations are child processes.

Measured on a 2-vCPU shared VM (Intel Xeon, 2.0 GHz): over one minute a
fixed loop took 66-117 ms per call, while the ratio of a block of ``gates``
operations to the in-process kernel stayed within 1.68-1.78.

A program that ran work in a background thread during the kernel would slow
it and so flatter its own calibrated times; the package runs no threads.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Neighbouring kernel samples whose median scales one stretch of operations.
WINDOW = 4


def dict_loop() -> int:
    acc: dict[tuple[int, int, int], complex] = {}
    for i in range(10_000):
        key = (i & 7, i & 3, i >> 5)
        acc[key] = acc.get(key, 0j) + complex(i, 1) * 0.5
    return len(acc)


def numpy_small() -> complex:
    a = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    v = np.array([1, 0, 0, 1], dtype=complex)
    acc = 0j
    for _ in range(120):
        m = np.kron(a, a) @ v
        acc += np.trace(np.outer(m, v)) + np.vdot(m, v)
    return acc


def numpy_child() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


@dataclass(frozen=True)
class Kernel:
    """A fixed piece of work, independent of the package, timed between operations.

    ``nominal_s`` is its time on the nominal machine; ``every_s`` is the
    operation time between two samples.
    """

    name: str
    work: Callable[[], object]
    nominal_s: float
    every_s: float

    def sample(self) -> float:
        """Wall time of one run of the work, in seconds."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def factors(self, samples: list[float]) -> list[float]:
        """Scale factor for the operations between ``samples[s]`` and ``samples[s + 1]``.

        Uses the median of the kernel times around that stretch, so that one
        kernel run hit by a preemption does not skew it.
        """
        out = []
        for s in range(len(samples) - 1):
            near = samples[max(0, s - 1) : s + WINDOW - 1]
            out.append(self.nominal_s / statistics.median(near))
        return out


# The package's own kind of pure-Python work (dict updates keyed by
# tuples, complex arithmetic).
DICT_LOOP = Kernel("dict-loop", dict_loop, 0.005, 0.05)
# Many calls on tiny numpy arrays, the bulk of ``verify`` (the teleport
# coefficient table), which slows less than pure-Python work under load.
NUMPY_SMALL = Kernel("numpy-small", numpy_small, 0.003, 0.05)
# For child-process operations: start Python and import numpy, which is
# most of what a small CLI command costs besides the package.
CHILD = Kernel("numpy-child", numpy_child, 0.13, 1.0)
