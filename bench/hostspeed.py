"""Host-speed normalisation of the timed operations.

On a shared virtual CPU the speed of one process can change by 1.5x or
more, within seconds and in stretches of 10 to 60 s. CPU time tracks wall
time, so it is the CPU that runs slower, not the process that waits. Two
runs of the same code a minute apart then differ by more than any change
worth measuring.

To take that out, a fixed reference kernel is timed right after every
operation, for about a tenth of the operation's time. The kernel does not
call the package, so no change to the package moves it. Each operation's
time is multiplied by

    REF_KERNEL_S / median(kernel times within WINDOW_S of the operation)

so a normalised time reads as the time the operation would take on a host
where the kernel takes REF_KERNEL_S. A change that makes the program faster
makes its normalised times smaller by the same factor. The raw times and
the median scale of each run are kept in the run record.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# median time of each kernel on the host the benchmark was built on (2-vCPU Intel Xeon VM)
REF_KERNEL_S = {"small": 170e-6, "mixed": 450e-6, "scan": 800e-6}
# kernel samples within this many seconds of an operation set its scale
WINDOW_S = 0.25
# kernel time spent after each operation, as a share of the operation's time
KERNEL_SHARE = 0.1


class _Cell:
    __slots__ = ("key", "values")

    def __init__(self, key, values):
        self.key = key
        self.values = values


class HostSpeed:
    """Times a reference kernel between operations and scales operation times by it.

    Three kernels, chosen per workload to match how its operations use the
    CPU: "small" (numpy calls on a 48x48 float array, like the walk and the
    trials), "mixed" (the same plus building small Python objects, like the
    CLI's parsing and serialising) and "scan" (a pass over a 20 000 x 6
    integer array, like the grid search's pair scan, which is bound by
    memory more than by the CPU).
    """

    def __init__(self, kind: str = "small") -> None:
        self.kind = kind
        self._grid = np.linspace(1.0, 2.0, 48 * 48).reshape(48, 48)
        self._counts = np.random.default_rng(0).integers(0, 30, size=(20_000, 6))
        self._diff = np.empty((len(self._counts) - 1, 6), dtype=self._counts.dtype)
        self._l1 = np.empty(len(self._diff), dtype=self._counts.dtype)
        self._near = np.empty(len(self._diff), dtype=bool)
        self.kernel = {"small": self._small, "mixed": self._mixed, "scan": self._scan}[kind]
        self.at: list[float] = []
        self.took: list[float] = []
        for _ in range(20):
            self.kernel()

    def _small(self) -> float:
        grid = self._grid
        acc = 0.0
        for _ in range(6):
            rows = grid / grid.sum(axis=1, keepdims=True)
            acc += float((rows * np.log2(rows)).sum())
            acc += float(np.abs(rows - grid).sum())
        return acc

    def _mixed(self) -> float:
        acc = self._small()
        for i in range(400):
            item = _Cell(i, [i, i + 1])
            acc += item.key + len(item.values)
        return acc

    def _scan(self) -> float:
        # into preallocated buffers: a fresh 1 MB temporary would time the allocator's state
        counts, diff, l1, near = self._counts, self._diff, self._l1, self._near
        np.subtract(counts[1:], counts[0], out=diff)
        np.abs(diff, out=diff)
        diff.sum(axis=1, out=l1)
        np.less_equal(l1, 40, out=near)
        return float(np.count_nonzero(near))

    def sample(self, op_s: float) -> None:
        """Run the kernel at least once, for about KERNEL_SHARE of an operation that took op_s."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self.kernel()
            t1 = perf_counter()
            self.at.append(t0)
            self.took.append(t1 - t0)
            if t1 - start >= KERNEL_SHARE * op_s:
                return

    def scale(self, t0: float, t1: float) -> float:
        """Factor that brings an operation timed from t0 to t1 to the reference host's speed."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        return REF_KERNEL_S[self.kind] / statistics.median(self.took[lo:hi])
