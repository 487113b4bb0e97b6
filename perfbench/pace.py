"""Timings scaled to a reference host speed.

On a shared host the speed of a core drifts by up to 1.9x from second to
second, with the load other tenants put on it; an op's seconds then say
more about the neighbours than about the op.  A Pacer measures the speed
while an op runs: a SIGALRM timer interrupts the main thread every
PERIOD_S seconds and times a fixed kernel, and one kernel runs right
before and right after the op.  Each stretch of the op between two kernels
is scaled by ref_s / (the mean time of the two kernels), so the op's
reference seconds are the seconds it would take on a core that runs the
kernel in the kernel's ref_s.  Kernel time is left out of the op's time.

Contention slows kinds of work by different amounts, so the kernel must
do the kind of work that dominates the op: SparseRows, the row loop of a
triangular solve, for table1 and for imports and input writes;
DenseMatvec, dense matrix-vector products, for certify.  In sets of 5 to
10 runs, table1 figures spread 0.16 to 0.27 of their median in raw
seconds, 0.06 scaled by a pure integer loop and 0.01 scaled by SparseRows;
certify figures 0.07 to 0.15 raw, 0.09 to 0.16 scaled by SparseRows and
0.01 to 0.07 by DenseMatvec.
Kernels are the benchmark's own code, so a change to lcpkit leaves them
as they are.

Each ref_s is about the fastest its kernel ran on a 2-vCPU Intel Xeon VM
with Python 3.11.7, numpy 2.4 and one OpenBLAS thread.  It is a fixed
unit, so figures compare across runs and commits on one machine; the raw
seconds go with them in the details.  Work inside one long C call (a
dense inverse) is interrupted only when the call returns, so its stretch
is scaled by the kernels on both sides of it.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.025
WARM_UP_KERNELS = 60


class SparseRows:
    """Forward substitution over ROWS rows of the lower triangle of the
    five-point Laplacian on a GRID x GRID grid (-1 off the diagonal, 4 on
    it), one numpy dot per row, as in lcpkit's triangular solve.  Each call
    starts further on, so the calls walk the whole matrix."""

    GRID = 100
    ROWS = 200
    ref_s = 0.0004

    def __init__(self):
        n = self.GRID * self.GRID
        rows = np.arange(n)
        up, left = rows[rows >= self.GRID], rows[rows % self.GRID > 0]
        r = np.concatenate([up, left, rows])
        c = np.concatenate([up - self.GRID, left - 1, rows])
        v = np.concatenate([np.full(len(up) + len(left), -1.0), np.full(n, 4.0)])
        order = np.lexsort((c, r))
        self.starts = np.searchsorted(r[order], np.arange(n + 1))
        self.cols, self.vals = c[order], v[order]
        self.b, self.x = np.ones(n), np.zeros(n)
        self.first = 0

    def __call__(self):
        first = self.first
        self.first = (first + 7919) % (len(self.b) - self.ROWS)
        starts, cols, vals, x, b = self.starts, self.cols, self.vals, self.x, self.b
        for i in range(first, first + self.ROWS):
            lo, hi = starts[i], starts[i + 1]
            x[i] = (b[i] - vals[lo:hi - 1] @ x[cols[lo:hi - 1]]) / vals[hi - 1]


class DenseMatvec:
    """Two products of a dense N x N matrix with a vector, as in the power
    iteration on certify's dense iteration matrix.  Its 6.5 MB matrix
    counts in certify's peak_rss_mb."""

    N = 900
    ref_s = 0.00055

    def __init__(self):
        self.g = np.random.default_rng(0).random((self.N, self.N))
        self.v = np.ones(self.N)

    def __call__(self):
        return self.g @ (self.g @ self.v)


KERNELS = {"sparse_rows": SparseRows, "dense_matvec": DenseMatvec}


class Pacer:
    """Measures ops on the main thread with one kernel; not re-entrant."""

    def __init__(self, kernel="sparse_rows"):
        self.kernel = KERNELS[kernel]()
        self.samples = []  # (wall at start, cpu at start, wall seconds, cpu seconds)
        self.busy = False
        for _ in range(WARM_UP_KERNELS):  # so that no sample pays for cold caches
            self.kernel()

    def _sample(self, *_):
        if self.busy:  # a tick that lands in a kernel the host stalled
            return
        self.busy = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.kernel()
        self.samples.append((wall0, cpu0, time.perf_counter() - wall0,
                             time.process_time() - cpu0))
        self.busy = False

    @contextmanager
    def measuring(self):
        """Yields a dict that holds, once the block ends, its raw wall_s and
        cpu_s (kernel time left out) and ref_wall_s and ref_cpu_s."""
        result = {}
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        result.update(scale(self.samples, self.kernel.ref_s))


def scale(samples, ref_s):
    """Raw and reference seconds of the stretches between consecutive
    kernel samples (wall at start, cpu at start, wall seconds, cpu seconds),
    for a kernel that takes ref_s at the reference speed."""
    out = {"wall_s": 0.0, "cpu_s": 0.0, "ref_wall_s": 0.0, "ref_cpu_s": 0.0,
           "kernels": len(samples)}
    for (w0, c0, dw0, dc0), (w1, c1, dw1, _) in zip(samples, samples[1:]):
        wall, cpu = w1 - (w0 + dw0), c1 - (c0 + dc0)
        factor = ref_s * (1.0 / dw0 + 1.0 / dw1) / 2.0
        out["wall_s"] += wall
        out["cpu_s"] += cpu
        out["ref_wall_s"] += wall * factor
        out["ref_cpu_s"] += cpu * factor
    return out
