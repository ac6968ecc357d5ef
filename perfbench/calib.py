"""Machine-speed calibration for the timings.

The host this benchmark was built on runs an unchanged op at two speeds
about 1.6x apart, switching every few seconds and sometimes staying slow
for a minute; thread CPU time slows down with wall time, so the process
is not waiting but running slower.  A fixed kernel of small numpy calls
and Python arithmetic, like the program's own mix, slows down by the
same factor (the ratio of an `orbit_report` to the kernel held within
3 % while raw times swung 863-1469 us), so every timing is scaled by
`REF_NS / kernel time` measured next to it.  Reported times are those of
a machine on which the kernel takes REF_NS: its best time on a 2-vCPU
Intel Xeon VM when that host ran at its faster speed.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

REF_NS = 140_000.0
REFRESH_NS = 20_000_000

_A = np.array([[1.0, 0.2, 0.1], [0.3, 1.1, 0.0], [0.2, 0.1, 0.9]])
# bound now, so a tracer that later wraps numpy.linalg does not slow the kernel
_svd = np.linalg.svd


def _kernel():
    x = _A
    for _ in range(10):
        s = _svd(x, compute_uv=False)
        x = (x @ _A) / float(np.max(np.abs(x)))
        [float(v) for v in s]


def kernel_ns(repeats=3):
    """Best time of the kernel over `repeats` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter_ns()
        _kernel()
        best = min(best, perf_counter_ns() - t0)
    return best


class Speed:
    """The current scale factor REF_NS / kernel time, re-measured when
    more than REFRESH_NS have passed since the last measurement."""

    def __init__(self):
        self.factor = REF_NS / kernel_ns()
        self._at = perf_counter_ns()

    def refresh(self, force=False):
        if force or perf_counter_ns() - self._at >= REFRESH_NS:
            self.factor = REF_NS / kernel_ns()
            self._at = perf_counter_ns()
        return self.factor
