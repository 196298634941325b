"""Reverse-mode differentiation through the unrolled dynamics.

solve_with_tape records the forward loop on a lean tape; backward then
walks the tape once, applying the adjoint of each operation (clamp,
convex update, weighted projection, SPD solve, Laplacian assembly,
weighting) and finally hands the accumulated cost gradient to
PreparedLP.pullback and pullback_A, which map it from c_hat back to the
LP's c and A; jvp maps its direction in through PreparedLP.tangent.
The iterate is the LP's own, so both compute with the LP's one
operator, A and its transpose, and neither reads the zero-cost
perturbation or the potentials but through these maps.
Both skip the blend with the previous iterate's term at step_size 1,
as the forward step does.  The tape holds the LP and the SolverConfig
it ran with, both frozen, not copies.

Per step the tape holds a solver.StepDetail, whose docstring lists
what it keeps and its size: the step's whole system S as the
linalg.WeightedGram the forward solve used, with the Cholesky factor
that solve left on it, and a few vectors.  Nothing of S is computed
again, and nothing is factored again.
The solve adjoint gL = -outer(z, p) has rank one, so backward never
forms an m-by-m or m-by-n array per step: each step costs one product
with A and one with its transpose, a few n-vector operations, and
one spd_solve against the step's gram: two triangular solves with its
factor (around two GEMVs in blocks) and a residual check against the
kept S, a dense GEMV of order m or, in blocks, two GEMVs and the
diagonal; or PCG on the kept sparse S when the gram has no factor.
The column norms ||a_j||^2 of the Tikhonov term come from op's CSR
data.  gA is the sum of 2K rank-one terms, two per step, and
an update on A's nonzeros from the Tikhonov term: backward keeps their
vectors, stacked as (2K, m) and (2K, n) factor rows, and the n-vector
omega of the update, and every solve and so every Breakdown stays
inside backward.  LpGradients.grad_A builds the m-by-n array on its
first read, with one GEMM over the factor rows, the update and
PreparedLP.pullback_A, arithmetic only; a caller that reads only
grad_c and grad_b pays no O(mn) work.
jvp forms dL p the same way.  spd_solve accepts every solve on backward
error; backward and jvp ask for cfg.linsolve_tol on factored steps and
at most CG_ADJOINT_TOL on CG steps, whose forward solves ran to the
looser solver.forward_tol.

The clamp back-propagates as a subgradient: pass-through where the
pre-clamp value stayed strictly above the floor solver.CLAMP_FLOOR,
zero where the clamp was active.  The pullback holds the perturbation
gamma = solver.default_gamma(m, n) and the potentials constant:
coordinates whose working cost was exactly zero (and therefore
replaced by gamma) receive zero cost gradient.
"""

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.sparse
from scipy.linalg.blas import daxpy, ddot

# validate and spd_solve_adjoint stay imported unused: the benchmark's
# traced run wraps them here
from .core import SolverConfig, checked_array, validate  # noqa: F401
from .linalg import spd_solve, spd_solve_adjoint  # noqa: F401
from .solver import _solve_loop, solve

# Relative target of the adjoint and tangent solves of steps without a
# factor (CG steps), when cfg.linsolve_tol is looser.  spd_solve
# accepts z on a backward-error test, which on ill-conditioned DAG
# Laplacians allows a large forward error: on a 100-step tape of a
# 600-node DAG, backward and jvp missed the dot-product test by 6.6e-4
# at 1e-10, 4.3e-7 at 1e-12 and 1.9e-11 at 1e-14.  On a second DAG of
# the same recipe they missed it by 1.5e-7 at 1e-14 and by 8.4e-9 at
# 1e-15, the worst of 12 tapes (3 DAGs, 4 seeds), for 7% more backward
# PCG iterations.  Factored steps keep cfg.linsolve_tol, which their
# Cholesky solves meet anyway.
CG_ADJOINT_TOL = 1e-15

# finite_diff_grad displaces each entry v by FD_STEP_SCALE * (1 + |v|).
FD_STEP_SCALE = 1e-6


def _adjoint_tol(gram, cfg):
    """Target of the backward or tangent solve of a step's gram."""
    return cfg.linsolve_tol if gram.factor is not None else min(cfg.linsolve_tol, CG_ADJOINT_TOL)


@dataclass(eq=False)
class UnrolledTape:
    """Recorded forward pass: the prepared LP (whose source is the LP
    solved, with the operator the steps computed with), cfg, the config
    it ran with, and one solver.StepDetail per iteration (see its
    docstring for what a step holds), the first of which starts from
    the initial iterate, steps[0].x_prev; all of it is reachable
    through dataclass fields."""

    prep: object
    cfg: SolverConfig
    steps: list = field(default_factory=list)

    def __len__(self):
        return len(self.steps)


@dataclass(eq=False)
class LpGradients:
    """Gradients of a scalar loss with respect to the LP's data.

    grad_A may be given as the m-by-n array or as a function of no
    arguments that builds it; the first read of grad_A calls the
    function, keeps the array and drops the function with what it
    holds.  A build that raises leaves the function in place for the
    next read.  backward gives such a function.  It holds the factor
    rows of the 2K rank-one terms of a K-step tape, 2K(m + n) floats,
    the Tikhonov update's omega, a copy of grad_c as backward returned
    it and the PreparedLP, but not the tape.  A read runs no solve,
    only the GEMM, the update on A's nonzeros and pullback_A.  The factor rows are not
    always smaller than grad_A: at 50 steps they hold 0.53 million
    floats against 0.77 million at 50x100 (150x5100), but 99,000
    against 55,800 at 30x30 (60x930), so unread gradients of small LPs
    hold more than a built grad_A would.
    """

    grad_c: np.ndarray
    grad_A: np.ndarray
    grad_b: np.ndarray

    def __post_init__(self):
        if callable(self.grad_A):
            self._build_A = self.grad_A
            del self.grad_A

    def __getattr__(self, name):
        # called only for names the instance lacks: grad_A until its
        # first read stores it, or a name it does not have at all
        build = vars(self).get("_build_A") if name == "grad_A" else None
        if build is None:
            return object.__getattribute__(self, name)
        grad_A = build()
        self.grad_A = grad_A
        vars(self).pop("_build_A", None)
        return grad_A


def solve_with_tape(lp, cfg=None, x0=None):
    """Forward solve that also returns the tape for backward.

    The tape holds all cfg.max_iters steps of the forward loop, or the
    steps before a linear-solve failure ended it: a tape never stops
    early, so its length does not depend on the data.
    """
    if cfg is None:
        cfg = SolverConfig()
    result, prep, steps = _solve_loop(lp, cfg, x0, True)
    return result, UnrolledTape(prep, cfg, steps)


def backward(tape, grad_x):
    """Pull d(loss)/d(x) back to gradients of (c, A, b).

    grad_x is taken with respect to x, the final iterate, which is the
    result's x and tape.steps[-1].x_new.  The initial iterate is
    treated as constant, so a zero-length tape yields zero gradients.
    The objective c.x also depends on c directly: its gradients are
    backward(tape, lp.c) with x added to grad_c.  grad_x passes
    core.checked_array as an n-vector (DimensionMismatch,
    NonFiniteEntry).  Breakdown is raised when an adjoint solve misses
    its backward-error target even after PCG refinement.  The working
    cost that c_hat ** 2 squares is at most core.A_MAX, which
    solver.prepare_lp holds it to, so the square is finite.  grad_c and
    grad_b are computed here; grad_A is built when it is first read.
    """
    prep = tape.prep
    op = prep.source.operator
    c_hat = prep.c
    c_sq = c_hat ** 2
    h = tape.cfg.step_size
    m, n = op.A.shape
    g = checked_array(grad_x, (n,), "grad_x")

    gc_hat = np.zeros(n)
    gb = np.zeros(m)
    # each step adds outer(p, gu - v*w) + outer(-z, u*w) to gA; the 2K
    # vector pairs are stacked for _grad_A
    K = len(tape.steps)
    left = np.empty((2 * K, m))
    right = np.empty((2 * K, n))
    # a default Tikhonov term reg = s * sum_j w_j ||a_j||^2 / m adds
    # g_reg * s ||a_j||^2 / m to gw_j and (2 s / m) g_reg w_j a_j to
    # column j of gA, which omega collects for _grad_A
    col_sq = np.bincount(op.A.indices, op.A.data ** 2, minlength=n)
    omega = np.zeros(n)

    for k, det in enumerate(reversed(tape.steps)):
        w = det.gram.w
        g = np.where(det.clamp_mask, g, 0.0)
        # pre = (1 - h) x + h q, or q itself at h = 1
        gq = g if h == 1.0 else h * g
        # q = w * u, u = A^T p
        gu = w * gq
        # p = S^{-1} b with S = A diag(w) A^T + reg*I: z = S^{-1} (A gu),
        # and the rank-1 gL = -outer(z, p) gives gw = -(A^T z) * u
        z = spd_solve(det.gram, op.A @ gu, _adjoint_tol(det.gram, tape.cfg)).p
        gb += z
        v = op.AT @ z
        g_reg = -ddot(z, det.p) * det.reg_scale / m
        gw = daxpy(col_sq, det.u * (gq - v), a=g_reg)
        omega = daxpy(w, omega, a=2.0 * g_reg)
        left[k] = det.p
        np.negative(z, out=left[K + k])
        np.subtract(gu, np.multiply(v, w, out=right[k]), out=right[k])
        np.multiply(det.u, w, out=right[K + k])
        # w = x / c_hat
        gc_hat -= gw * det.x_prev / c_sq
        g = gw / c_hat if h == 1.0 else (1.0 - h) * g + gw / c_hat

    # the build pulls back with a copy of grad_c, which a caller may
    # write into first
    grad_c = prep.pullback(gc_hat)
    return LpGradients(grad_c, partial(_grad_A, prep, left, right, omega, grad_c.copy()), gb)


def _grad_A(prep, left, right, omega, grad_c):
    """grad_A from backward's factor rows: one GEMM over the 2K stacked
    pairs, the Tikhonov update omega on A's nonzeros, then pullback_A
    with backward's grad_c.  It writes into none of its arguments, so a
    build can be repeated."""
    A = prep.source.operator.A
    gA = left.T @ right
    gA[_rows(A), A.indices] += A.data * omega[A.indices]
    return prep.pullback_A(gA, grad_c)


def jvp(tape, dc=None, dA=None, db=None):
    """Directional derivative of the final iterate.

    Propagates a perturbation (dc, dA, db) of the LP's data through
    the recorded forward pass and returns dx of the final iterate x.
    The adjoint in backward is the transpose of this map, which the
    tests verify via dot products.  Without dA no m-by-n product is taken.
    Each direction given passes core.checked_array in the LP's shape
    (DimensionMismatch, NonFiniteEntry), under its own name; dA may be
    dense or scipy.sparse, as lp.A is, and is made dense first.
    """
    prep = tape.prep
    op = prep.source.operator
    c_hat = prep.c
    h = tape.cfg.step_size
    m, n = op.A.shape
    dc = np.zeros(n) if dc is None else checked_array(dc, (n,), "dc")
    db = np.zeros(m) if db is None else checked_array(db, (m,), "db")
    if dA is not None:
        dA = checked_array(dA.toarray() if scipy.sparse.issparse(dA) else dA, (m, n), "dA")
    dc_w = prep.tangent(dc, dA)
    # a default Tikhonov term moves by
    # d reg = s / m * sum_j (dw_j ||a_j||^2 + 2 w_j a_j . da_j)
    col_sq = np.bincount(op.A.indices, op.A.data ** 2, minlength=n)
    col_da = np.zeros(n) if dA is None else _column_dots(op.A, dA)

    c_sq = c_hat ** 2
    dx = np.zeros(n)
    for det in tape.steps:
        x, w, p, u = det.x_prev, det.gram.w, det.p, det.u
        dw = dx / c_hat - x * dc_w / c_sq
        # dL p with dL = dA W A^T + A dW A^T + A W dA^T, never formed
        if dA is None:
            dAt_p, dL_p = 0.0, op.A @ (dw * u)
        else:
            dAt_p = dA.T @ p
            dL_p = dA @ (w * u) + op.A @ (dw * u + w * dAt_p)
        d_reg = det.reg_scale / m * (ddot(dw, col_sq) + 2.0 * ddot(w, col_da))
        dL_p += d_reg * p
        dp = spd_solve(det.gram, db - dL_p, _adjoint_tol(det.gram, tape.cfg)).p
        du = dAt_p + op.AT @ dp
        dq = dw * u + w * du
        dx = dq if h == 1.0 else (1.0 - h) * dx + h * dq
        dx = np.where(det.clamp_mask, dx, 0.0)
    return dx


def _rows(A):
    """The row of each stored entry of the CSR matrix A."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def _column_dots(A, X):
    """a_j . x_j for every column j of the CSR matrix A and the dense X
    of its shape, over the nonzeros of A."""
    return np.bincount(A.indices, A.data * X[_rows(A), A.indices], minlength=A.shape[1])


def finite_diff_grad(lp, cfg, loss, x0=None):
    """Central-difference gradients of loss(x) of the final iterate x
    w.r.t. (c, A, b).

    Each entry v is displaced by eta = FD_STEP_SCALE * (1 + |v|).  The
    forward solves run with early stopping disabled, so every
    evaluation performs cfg.max_iters iterations, as a tape does; x0
    is passed through so the probes share their starting point with
    the solve being checked.
    """
    def run(A, b, c):
        trial = replace(lp, A=A, b=b, c=c)
        return float(loss(solve(trial, cfg, x0=x0, early_stop=False).x))

    def central(arr, setter):
        grad = np.zeros_like(arr)
        flat = grad.ravel()
        src = arr.ravel()
        for i in range(src.size):
            eta = FD_STEP_SCALE * (1.0 + abs(src[i]))
            plus = arr.copy().ravel()
            plus[i] = src[i] + eta
            minus = arr.copy().ravel()
            minus[i] = src[i] - eta
            f_plus = setter(plus.reshape(arr.shape))
            f_minus = setter(minus.reshape(arr.shape))
            flat[i] = (f_plus - f_minus) / (2.0 * eta)
        return grad

    grad_c = central(lp.c, lambda c: run(lp.A, lp.b, c))
    grad_A = central(lp.A.toarray(), lambda A: run(A, lp.b, lp.c))
    grad_b = central(lp.b, lambda b: run(lp.A, b, lp.c))
    return LpGradients(grad_c, grad_A, grad_b)
