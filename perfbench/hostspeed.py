"""Host-speed calibration: a fixed numpy kernel timed between operations.

On a shared host the same code runs up to a third slower or faster in phases
that last from seconds to minutes, because other tenants share the cores and
caches; the process is not descheduled (CPU time slows as much as wall time),
so CPU time does not help.  Timing this kernel, which never touches curvlab,
just before and just after each operation tells how fast the host was while
the operation ran.  A run's round time is rescaled to a fixed host speed by
REFERENCE_KERNEL_S over the kernel's mean time, each kernel time weighted by
how long the operation next to it took (worker.norm_round_time).  Set-up time
is rescaled by the kernel timed in the set-up process (run.py).

The kernel has two halves, each about 25 ms on the reference machine:

- ``mix``: complex elementwise arithmetic, a small einsum and a small matrix
  product on arrays of 0.7-3.5 MB, the kind of work curvlab's jets do;
- ``stream``: elementwise float arithmetic on three 8 MB arrays, four times
  the 2 MB L2 cache, like curvlab's largest batches.

Its time is the geometric mean of the two.  Together they track both kinds of
slowdown; either half alone tracked some workload much worse (README.md).
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel time that defines the reference host speed.  It is about the median
# kernel time on the reference machine (README.md), so rescaled times there
# read close to wall times.  Changing it rescales every normalized figure.
REFERENCE_KERNEL_S = 0.025


class HostKernel:
    """The calibration kernel; its arrays are made once, at start-up."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.a = rng.standard_normal((2048, 21)) + 1j * rng.standard_normal((2048, 21))
        self.b = rng.standard_normal((13824, 16)) + 1j * rng.standard_normal((13824, 16))
        self.m = rng.standard_normal((120, 120))
        self.s1 = rng.standard_normal(1 << 20)
        self.s2 = rng.standard_normal(1 << 20)
        self.s3 = np.empty_like(self.s1)

    def _mix(self):
        for _ in range(2):
            x = self.a * self.a.conj() + 0.5 * self.a
            np.einsum("ni,nj->nij", x[:, :4], x[:, :4]).sum(axis=0)
            np.exp(1j * self.b.real) * self.b
            self.m @ self.m

    def _stream(self):
        for _ in range(10):
            np.multiply(self.s1, self.s2, out=self.s3)
            np.add(self.s3, self.s1, out=self.s3)

    def seconds(self) -> float:
        """Time one pass of the kernel: the geometric mean of its halves."""
        t0 = time.perf_counter()
        self._mix()
        t1 = time.perf_counter()
        self._stream()
        t2 = time.perf_counter()
        return math.sqrt((t1 - t0) * (t2 - t1))
