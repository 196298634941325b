"""A fixed numpy kernel that measures how fast the host runs right now.

The benchmark's host is a small share of a machine it shares with other
tenants.  Its speed drifts by 25% and more within seconds (median time
of the same op, in 1-second windows, ranged 26-46 ms over 150 s), so
raw wall times of the same code spread past any useful bound.  A
Reference runs the same fixed work on every call: a few Physarum-like
steps (dense A diag(w) A^T assembly, the input checks an SPD solver
makes, a solve, its residual, a clamped update, and for gradient ops the
outer products and m x m by m x n products of the step's adjoint) at
the LP shape of an op, in the benchmark's own numpy code.  The harness times one call
right after every op and divides the op's time by it; contention slows
both alike, so the ratio holds steady while the raw times drift (on
match-small ops, 3-second window medians varied by 15% of their mean,
their ratios to this kernel by 3%; on 30x30 gradient ops 10% and 2.4%,
and 3.8% without the adjoint's work).  Times are reported as that ratio
times nominal_ms, the kernel's median time on a 2-vCPU Intel Xeon VM at
one BLAS thread: milliseconds at the reference speed.

The kernel never calls physlp, so no change to the library moves it,
and it uses no function the traced run wraps.
"""

import time

import numpy as np

# The kernel's matrix is the same for every workload seed.
KERNEL_SEED = 20040145
# Per instance size (cost matrix shape, or node count of a DAG): the LP
# shape (m, n) of its ops, the kernel's steps, about a fifth of an op's
# time, the kernel's nominal milliseconds, and whether it does the
# adjoint's work too (only the 30x30 draws are all gradient ops).
KERNELS = {
    (5, 50): (55, 300, 20, 5.6, False),
    (30, 30): (60, 930, 16, 22.0, True),
    (50, 100): (150, 5100, 10, 107.0, False),
    (600,): (599, 1794, 10, 530.0, False),
}


class Reference:
    """`iters` steps on a fixed m x n matrix with two nonzeros per column,
    like the constraint matrix of a matching LP."""

    def __init__(self, m, n, iters, nominal_ms, adjoint=False):
        rng = np.random.default_rng(KERNEL_SEED)
        A = np.zeros((m, n))
        cols = np.arange(n)
        A[cols % m, cols] = 1.0
        A[rng.integers(m, size=n), cols] += 1.0
        self.A = A
        self.b = A @ np.ones(n)
        self.iters = iters
        self.nominal_ms = nominal_ms
        self.adjoint = adjoint

    def kernel(self):
        """The fixed work; returns the last iterate."""
        A, b = self.A, self.b
        x = np.ones(A.shape[1])
        reg = 1e-8 * np.eye(A.shape[0])
        for _ in range(self.iters):
            L = (A * x) @ A.T + reg
            if not np.all(np.isfinite(L)) or np.max(np.abs(L - L.T)) > 1e-12 * np.max(L):
                raise ArithmeticError("reference matrix is not symmetric and finite")
            p = np.linalg.solve(L, b)
            if not np.linalg.norm(L @ p - b) < 1e-6 * np.linalg.norm(b):
                raise ArithmeticError("reference solve missed its residual")
            u = A.T @ p
            x_new = 0.5 * x + 0.5 * x * u
            if self.adjoint:
                P = np.outer(p, p)
                gw = np.einsum("rj,rj->j", A, P @ A)
                gA = ((P + P.T) @ A) * x[np.newaxis, :] + np.outer(p, u)
                x_new += 1e-12 * (gw + gA[0])
            x = np.minimum(np.where(x_new > 1e-3, x_new, 1e-3), 1e3)
        return x

    def seconds(self):
        """Wall seconds of one kernel call."""
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def scale(self, ref_seconds):
        """Factor that turns a wall time measured next to a kernel call
        of ref_seconds into a time at the reference speed."""
        return 1e-3 * self.nominal_ms / ref_seconds


class References:
    """The Reference for each instance size, built and warmed on first
    use, so that every op is scaled by a kernel of its own LP shape.
    tiny runs (the benchmark's tests) use one small kernel for all."""

    def __init__(self, tiny=False):
        self.tiny = tiny
        self._by_size = {}

    def __getitem__(self, size):
        if size not in self._by_size:
            ref = Reference(4, 8, 1, 1.0) if self.tiny else Reference(*KERNELS[size])
            ref.kernel()  # numpy's first-call costs stay out of its timings
            self._by_size[size] = ref
        return self._by_size[size]
