"""Host-speed calibration of untraced runs.

A host that is a share of a larger machine, like the 2-core one of
PROVENANCE.json, drifts in speed as other tenants load the machine, by a
quarter or more over stretches of ten seconds to minutes; the program's
time per step drifts with it.  A fixed calibration
kernel, run between time steps and between set-ups, slows down with the
same drift.  A time measured over a stretch, multiplied by ``REFERENCE_S``
over the kernel's average time in that stretch, is the time the same work
takes at one fixed host speed: the one at which the kernel takes
``REFERENCE_S``.  A unit's wall time is a sum over the stretch and is scaled
by the mean kernel time; the median of many set-ups is scaled by the median
kernel time.  On the baseline host, over 20 s windows of a five-minute
stretch, this cut the spread of step time from 13 % to 2 % and of set-up
time from 23 % to 7 % (coefficient of variation).  Every end-to-end time
the benchmark reports is scaled so; the raw wall times are printed next to
them.

The kernel mixes the program's two kinds of work: interpreted Python and a
sparse LU factorization and solve (SuperLU, as ``sparsela`` uses).  It is
benchmark code, so a change to the program does not change it.
"""

import functools
import math
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tracing import STEP_TARGETS, install_wrappers, uninstall_wrappers

# the kernel's median time, in seconds, at the reference host speed: about
# its median on the baseline host of PROVENANCE.json when that host ran fast
REFERENCE_S = 0.005

# least wall time between two kernel runs inside a unit, in seconds
EVERY_S = 0.25

_GRID = 40
_MATRIX = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-_GRID, -1, 0, 1, _GRID],
                   shape=(_GRID * _GRID, _GRID * _GRID), format="csc")
_RHS = np.ones(_GRID * _GRID)


def kernel():
    """Fixed work of about 5 ms on the baseline host."""
    total = 0
    for i in range(20000):
        total += i * i
    spla.splu(_MATRIX).solve(_RHS)
    return total


class Calibration:
    """Kernel times over one stretch of a run."""

    def __init__(self, package="wallflow"):
        self.package = package
        self.samples = []
        self.spent = 0.0            # wall time spent in the kernel
        self._last = -math.inf

    def sample(self):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._last = end

    def scale(self, average):
        """Factor from a time measured over this stretch to the reference
        host speed.  ``average`` is ``statistics.mean`` for a time summed
        over the whole stretch, which a slow spell stretches in proportion
        to the mean kernel time, and ``statistics.median`` for the median
        of many short timings."""
        return REFERENCE_S / average(self.samples)

    def _wrap(self, name, fn):
        calibration = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if time.perf_counter() - calibration._last >= EVERY_S:
                calibration.sample()
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, fn, *args, **kwargs):
        """Call ``fn``, running the kernel at the start of a time step when
        ``EVERY_S`` has passed since it last ran, and once after ``fn``
        returns; returns (result, wall time of ``fn`` without the kernel)."""
        before = self.spent
        patches, _ = install_wrappers(self.package, STEP_TARGETS, self._wrap)
        try:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
        finally:
            uninstall_wrappers(patches)
        inside = self.spent - before
        self.sample()
        return result, end - start - inside
