"""A fixed reference kernel that tracks the machine's speed during a run.

On a shared virtual machine the CPU time of a fixed piece of work drifts
by up to a factor of two over tens of seconds, as other tenants load the
host; the drift moves sparse, dense and interpreter-bound code largely
together.
The benchmark times this kernel around every instance and reports each
timing scaled to the kernel's nominal speed: ``t * NOMINAL_S / kernel_t``.
The kernel is numpy/scipy code of the benchmark's own, so no change to
reswitch can move it.
"""
from __future__ import annotations

import statistics

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .pipeline import clock

# A typical CPU time of the kernel on a 2-core Intel Xeon VM, one BLAS thread.
NOMINAL_S = 0.011


class Reference:
    """A mix shaped like the pipeline's work, written without reswitch.

    Unpreconditioned CG on a fixed random graph Laplacian plus identity
    (many numpy calls on short vectors, as in the solver), a sparse
    triangular solve, dense products, and a pure-Python loop.
    """

    def __init__(self):
        n = 5000
        rng = np.random.default_rng(12345)
        adj = sp.random(n, n, density=3.0 / n, random_state=rng, format="csr")
        adj = adj + adj.T
        self._matrix = (sp.diags(np.asarray(adj.sum(axis=1)).ravel() + 1.0) - adj).tocsr()
        self._rhs = rng.standard_normal(n)
        path = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                        [-1, 0, 1], format="csc")
        self._lu = spla.splu(path)
        self._dense = rng.standard_normal((160, 160))
        self._items = list(range(20000))

    def once(self) -> float:
        t0 = clock()
        x = np.zeros_like(self._rhs)
        r = self._rhs.copy()
        p = r.copy()
        rr = float(r @ r)
        for _ in range(60):
            q = self._matrix @ p
            alpha = rr / float(p @ q)
            x += alpha * p
            r -= alpha * q
            rr, rr_old = float(r @ r), rr
            p = r + (rr / rr_old) * p
        for _ in range(8):
            self._lu.solve(r)
        for _ in range(8):
            self._dense @ self._dense
        total = 0
        for v in self._items:
            total += v
        return clock() - t0

    def measure(self) -> float:
        """Mean kernel CPU time over five back-to-back runs."""
        return statistics.fmean(self.once() for _ in range(5))


def factor(before: float, after: float) -> float:
    """Converts CPU seconds to nominal-speed seconds, from kernel times around them."""
    return NOMINAL_S / (0.5 * (before + after))
