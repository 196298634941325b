"""Reverse-mode differentiation through the unrolled dynamics.

solve_with_tape records the forward loop on a lean tape; backward then
walks the tape once, applying the adjoint of each operation (clamp,
convex update, weighted projection, SPD solve, Laplacian assembly,
weighting) and finally hands the accumulated gradients to
PreparedLP.pullback, which maps them back to the original (c, A, b).
jvp maps its direction in through PreparedLP.tangent; neither reads
the negative-cost flip or the zero-cost perturbation itself.  The tape
holds the LP and the SolverConfig it ran with, both frozen, not copies.

Per step the tape holds the Cholesky factor of S = A diag(w) A^T + reg*I
that the forward solve computed, plus x_prev, p, u, x_new and the clamp
mask; w = x_prev / c_hat is recomputed.  The factor is dense, m^2
floats, or a linalg.BlockFactor where the operator splits its rows:
the factor of the Schur complement on F plus the block S_FI and the
diagonal S_II, 7,600 floats against 22,500 on a 150-row assignment LP.
The solve adjoint gL = -outer(z, p) has rank one, so backward never
forms an m-by-m or m-by-n array per step: each step costs a few
products with A through PreparedLP.op, the WeightedOperator the
forward pass used (the input LP's own unless a column flipped), and
one spd_solve: two triangular solves against the stored factor
(around two GEMVs for a BlockFactor), or PCG on the sparse
A diag(w) A^T + reg*I that the forward CG steps use when the step had
no factor.  gA comes from one GEMM over the 2K stacked per-step
vectors at the end, and the column norms ||a_j||^2 of the Tikhonov
term from op's CSR data.
jvp forms dL p the same way.  spd_solve accepts every solve on backward
error; backward and jvp ask for cfg.linsolve_tol on factored steps and
at most CG_ADJOINT_TOL on CG steps, whose forward solves ran to the
looser solver.forward_tol.

The clamp back-propagates as a subgradient: pass-through where the
pre-clamp value stayed strictly above the floor, zero where the clamp
was active.  The pullback holds the perturbation gamma and the flip's M
constant: coordinates whose cost was exactly zero (and therefore
replaced by gamma) receive zero cost gradient.
"""

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np
from scipy.linalg.blas import daxpy, ddot

# validate and spd_solve_adjoint stay imported unused: the benchmark's
# traced run wraps them here
from .core import SolverConfig, validate  # noqa: F401
from .errors import DimensionMismatch
from .linalg import spd_solve, spd_solve_adjoint  # noqa: F401
from .solver import _iterate, _solve_loop

# Relative target of the adjoint and tangent solves of steps without a
# factor (CG steps), when cfg.linsolve_tol is looser.  spd_solve
# accepts z on a backward-error test, which on ill-conditioned DAG
# Laplacians allows a large forward error: on a 100-step tape of a
# 600-node DAG, backward and jvp missed the dot-product test by 6.6e-4
# at 1e-10, 4.3e-7 at 1e-12 and 1.9e-11 at 1e-14.  Factored steps keep
# cfg.linsolve_tol, which their Cholesky solves meet anyway.
CG_ADJOINT_TOL = 1e-14


def _adjoint_tol(det, cfg):
    """Target of the backward or tangent solve of the step det."""
    return cfg.linsolve_tol if det.factor is not None else min(cfg.linsolve_tol, CG_ADJOINT_TOL)


@dataclass
class UnrolledTape:
    """Recorded forward pass: the prepared LP (whose op holds the CSR
    copy of A sign the steps computed with, and whose source is the
    LP solved), cfg, the config it ran with, the initial iterate in
    working coordinates, and one StepDetail per iteration:
    five O(n) or O(m) vectors each, plus spd_solve's Cholesky factor,
    m-by-m or a linalg.BlockFactor of |F|^2 + |F| |I| + |I| floats,
    which steps above linalg.DIRECT_MAX_DIM rows (CG on the sparse
    matrix) only hold when its last resort ran."""

    prep: object
    cfg: SolverConfig
    x0: np.ndarray
    steps: list = field(default_factory=list)

    def __len__(self):
        return len(self.steps)

    @property
    def x_final(self):
        """Final iterate in working coordinates."""
        return self.steps[-1].x_new if self.steps else self.x0

    @property
    def clamp_active_any(self):
        """True if the clamp fired at any iteration on any coordinate."""
        return any(not det.clamp_mask.all() for det in self.steps)

    def replay(self):
        """Recompute the forward pass from the stored initial point.

        Runs the forward loop, solver._iterate, again for len(self)
        steps on the same operator.  A step's Tikhonov term and solve
        target follow from its input alone, so each step takes the
        recorded path (factored or CG) and the replay is bit-identical
        to the recorded trajectory on one platform.  That holds for
        early-stopped tapes too, and for tapes whose run ended at
        LINSOLVE_FAILURE, as the replay stops before the failed step.
        Returns the list of post-clamp iterates.
        """
        steps = islice(_iterate(self.prep, self.x0, self.cfg), len(self.steps))
        return [det.x_new for det, _, _, _ in steps]


@dataclass
class LpGradients:
    """Gradients of a scalar loss with respect to the original LP data."""

    grad_c: np.ndarray
    grad_A: np.ndarray
    grad_b: np.ndarray


def solve_with_tape(lp, cfg=None, x0=None, early_stop=False):
    """Forward solve that also returns the tape for backward.

    Early stopping is off by default so the tape length is exactly
    cfg.max_iters; pass early_stop=True to opt in (the tape then holds
    only the iterations actually performed).
    """
    if cfg is None:
        cfg = SolverConfig()
    result, prep, y0, steps = _solve_loop(lp, cfg, x0, early_stop, record_steps=True)
    tape = UnrolledTape(prep, cfg, y0, steps)
    return result, tape


def backward(tape, grad_x):
    """Pull d(loss)/d(x_final) back to gradients of (c, A, b).

    grad_x is taken with respect to the decoded final iterate.  The
    initial iterate is treated as constant, so a zero-length tape
    yields zero gradients.  Breakdown is raised when an adjoint solve
    misses its backward-error target even after PCG refinement.
    """
    prep = tape.prep
    op = prep.op
    c_hat = prep.c
    h = tape.cfg.step_size
    m, n = op.A.shape

    grad_x = np.asarray(grad_x, dtype=np.float64)
    if grad_x.shape != (n,):
        raise DimensionMismatch(f"grad_x has shape {grad_x.shape}, expected ({n},)")

    # decoded x = shift + sign * y
    g = prep.sign * grad_x
    gc_hat = np.zeros(n)
    gb = np.zeros(m)
    # each step adds outer(p, gu - v*w) - outer(z, u*w) to gA; the 2K
    # vector pairs are stacked and contracted by one GEMM at the end
    K = len(tape.steps)
    left = np.empty((2 * K, m))
    right = np.empty((2 * K, n))
    # a default Tikhonov term reg = s * sum_j w_j ||a_j||^2 / m adds
    # g_reg * s ||a_j||^2 / m to gw_j and (2 s / m) g_reg w_j a_j to
    # column j of gA, which omega collects for one update at the end
    col_sq = np.bincount(op.A.indices, op.A.data ** 2, minlength=n)
    omega = np.zeros(n)

    for k, det in enumerate(reversed(tape.steps)):
        w = det.x_prev / c_hat
        g = np.where(det.clamp_mask, g, 0.0)
        gq = h * g
        # q = w * u, u = A^T p
        gu = w * gq
        # p = S^{-1} b with S = A diag(w) A^T + reg*I: z = S^{-1} (A gu),
        # and the rank-1 gL = -outer(z, p) gives gw = -(A^T z) * u
        z = spd_solve(op.at(w), op.A @ gu, _adjoint_tol(det, tape.cfg), det.reg_used,
                      det.factor).p
        gb += z
        v = op.AT @ z
        g_reg = -ddot(z, det.p) * det.reg_scale / m
        gw = daxpy(col_sq, det.u * (gq - v), a=g_reg)
        omega = daxpy(w, omega, a=2.0 * g_reg)
        left[k], right[k] = det.p, gu - v * w
        left[K + k], right[K + k] = z, -(det.u * w)
        # w = x / c_hat
        gc_hat -= gw * det.x_prev / c_hat ** 2
        g = (1.0 - h) * g + gw / c_hat
    gA = left.T @ right
    rows = _rows(op.A)
    gA[rows, op.A.indices] += op.A.data * omega[op.A.indices]

    return LpGradients(*prep.pullback(gc_hat, gA, gb))


def objective_gradients(tape):
    """Gradients of the reported objective c^T x_final w.r.t. (c, A, b).

    Adds the direct d(c^T x)/dc = x term to the solve-mediated
    gradients, so a zero-length tape gives grad_c = x0 exactly.
    """
    grads = backward(tape, tape.prep.source.c)
    grads.grad_c = grads.grad_c + tape.prep.decode(tape.x_final)
    return grads


def jvp(tape, dc=None, dA=None, db=None):
    """Directional derivative of the decoded final iterate.

    Propagates a perturbation (dc, dA, db) of the original data through
    the recorded forward pass and returns d(x_final).  The adjoint in
    backward is the transpose of this map, which the tests verify via
    dot products.  Without dA no m-by-n product is taken.
    """
    prep = tape.prep
    op = prep.op
    c_hat = prep.c
    h = tape.cfg.step_size
    m, n = op.A.shape
    dc, db = (np.zeros(shape) if d is None else np.asarray(d, dtype=np.float64)
              for d, shape in ((dc, (n,)), (db, (m,))))
    dA = None if dA is None else np.asarray(dA, dtype=np.float64)
    if dc.shape != (n,) or db.shape != (m,) or (dA is not None and dA.shape != (m, n)):
        raise DimensionMismatch("direction shapes must match the LP")
    dc_w, dA_w, db_w = prep.tangent(dc, dA, db)
    # a default Tikhonov term moves by
    # d reg = s / m * sum_j (dw_j ||a_j||^2 + 2 w_j a_j . da_j)
    col_sq = np.bincount(op.A.indices, op.A.data ** 2, minlength=n)
    col_da = np.zeros(n) if dA_w is None else _column_dots(op.A, dA_w)

    dx = np.zeros(n)
    for det in tape.steps:
        x, p, u = det.x_prev, det.p, det.u
        w = x / c_hat
        dw = dx / c_hat - x * dc_w / c_hat ** 2
        # dL p with dL = dA W A^T + A dW A^T + A W dA^T, never formed
        if dA_w is None:
            dAt_p, dL_p = 0.0, op.A @ (dw * u)
        else:
            dAt_p = dA_w.T @ p
            dL_p = dA_w @ (w * u) + op.A @ (dw * u + w * dAt_p)
        d_reg = det.reg_scale / m * (ddot(dw, col_sq) + 2.0 * ddot(w, col_da))
        dL_p += d_reg * p
        dp = spd_solve(op.at(w), db_w - dL_p, _adjoint_tol(det, tape.cfg), det.reg_used,
                       det.factor).p
        du = dAt_p + op.AT @ dp
        dx = (1.0 - h) * dx + h * (dw * u + w * du)
        dx = np.where(det.clamp_mask, dx, 0.0)
    return prep.sign * dx


def _rows(A):
    """The row of each stored entry of the CSR matrix A."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def _column_dots(A, X):
    """a_j . x_j for every column j of the CSR matrix A and the dense X
    of its shape, over the nonzeros of A."""
    return np.bincount(A.indices, A.data * X[_rows(A), A.indices], minlength=A.shape[1])


def finite_diff_grad(lp, cfg, loss, step_scale=1e-6, x0=None):
    """Central-difference gradients of loss(x_final) w.r.t. (c, A, b).

    Each entry v is displaced by eta = step_scale * (1 + |v|).  The
    forward solves run with early stopping disabled so that every
    evaluation performs the same number of iterations; x0 is passed
    through so the probes share their starting point with the solve
    being checked.
    """
    from .solver import solve

    def run(A, b, c):
        trial = replace(lp, A=A, b=b, c=c)
        return float(loss(solve(trial, cfg, x0=x0, early_stop=False).x))

    def central(arr, setter):
        grad = np.zeros_like(arr)
        flat = grad.ravel()
        src = arr.ravel()
        for i in range(src.size):
            eta = step_scale * (1.0 + abs(src[i]))
            plus = arr.copy().ravel()
            plus[i] = src[i] + eta
            minus = arr.copy().ravel()
            minus[i] = src[i] - eta
            f_plus = setter(plus.reshape(arr.shape))
            f_minus = setter(minus.reshape(arr.shape))
            flat[i] = (f_plus - f_minus) / (2.0 * eta)
        return grad

    grad_c = central(lp.c, lambda c: run(lp.A, lp.b, c))
    grad_A = central(lp.A, lambda A: run(A, lp.b, lp.c))
    grad_b = central(lp.b, lambda b: run(lp.A, b, lp.c))
    return LpGradients(grad_c, grad_A, grad_b)
