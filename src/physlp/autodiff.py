"""Reverse-mode differentiation through the unrolled dynamics.

solve_with_tape records the forward loop on a lean tape; backward then
walks the tape once, applying the adjoint of each operation (clamp,
convex update, weighted projection, SPD solve, Laplacian assembly,
weighting) and finally maps the accumulated gradients through the
zero-cost perturbation and the negative-cost flip back to the original
(c, A, b).

Per step the tape holds the Cholesky factor of S = A diag(w) A^T + reg*I
that the forward solve computed, plus x_prev, p, u, x_new and the clamp
mask; w = x_prev / c_hat is recomputed.  The solve adjoint
gL = -outer(z, p) has rank one, so backward never forms an m-by-m or
m-by-n array per step: each step costs a few products with A through
the LP's WeightedOperator, the CSR copy the forward pass used,
and two triangular solves against the stored factor (PCG with the
operator v -> A(w * A^T v) + reg*v when the step had no factor), and gA
comes from one GEMM over the 2K stacked per-step vectors at the end.
jvp forms dL p the same way.  Both accept their solves on backward
error.

The clamp back-propagates as a subgradient: pass-through where the
pre-clamp value stayed strictly above the floor, zero where the clamp
was active.  Gradients with respect to the perturbation gamma and the
flip bound M are discarded; coordinates whose cost was exactly zero
(and therefore replaced by gamma) receive zero cost gradient.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .core import SolverConfig, validate
from .errors import DimensionMismatch
# spd_solve and spd_solve_adjoint, the SPD solve and its adjoint, stay
# importable from this module for callers that look them up here;
# backward and jvp solve with the recorded factors instead.
from .linalg import spd_solve, spd_solve_adjoint, weighted_solve  # noqa: F401
from .solver import _solve_loop, step_detail


@dataclass
class UnrolledTape:
    """Recorded forward pass: the prepared LP (whose lp.operator holds
    the CSR copy of A the steps computed with), the initial
    iterate in working coordinates, and one StepDetail per iteration:
    five O(n) or O(m) vectors each, plus spd_solve's m-by-m Cholesky
    factor, which steps above linalg.DIRECT_MAX_DIM rows (matrix-free
    CG) only hold when its last resort ran."""

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

        Uses the recorded per-iteration regularization and the same
        operator, so each step takes the recorded path (factored or
        matrix-free) and the replay is bit-identical to the
        recorded trajectory on one platform.
        Returns the list of post-clamp iterates.
        """
        x = self.x0.copy()
        iterates = []
        for det in self.steps:
            redo = step_detail(self.prep, x, self.cfg, reg_override=det.reg_used)
            x = redo.x_new
            iterates.append(x)
        return iterates


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
    tape = UnrolledTape(prep, copy.copy(cfg), y0, steps)
    return result, tape


def _seed_to_working(tape, dc, dA, db):
    """Map perturbation directions of (c, A, b) into working coordinates."""
    prep = tape.prep
    n = prep.lp.n
    m = prep.lp.m
    dc = np.zeros(n) if dc is None else np.asarray(dc, dtype=np.float64)
    dA = np.zeros((m, n)) if dA is None else np.asarray(dA, dtype=np.float64)
    db = np.zeros(m) if db is None else np.asarray(db, dtype=np.float64)
    if dc.shape != (n,) or dA.shape != (m, n) or db.shape != (m,):
        raise DimensionMismatch("direction shapes must match the LP")
    flip = prep.flip_mask
    dc_w = np.where(flip, -dc, dc)
    dc_w = np.where(prep.zero_mask, 0.0, dc_w)
    dA_w = dA.copy()
    db_w = db.copy()
    if prep.bound is not None and np.any(flip):
        flipped = np.flatnonzero(flip)
        dA_w[:, flipped] = -dA[:, flipped]
        db_w = db - prep.bound * dA[:, flipped].sum(axis=1)
    return dc_w, dA_w, db_w


def backward(tape, grad_x):
    """Pull d(loss)/d(x_final) back to gradients of (c, A, b).

    grad_x is taken with respect to the decoded final iterate.  The
    initial iterate is treated as constant, so a zero-length tape
    yields zero gradients.  Breakdown is raised when an adjoint solve
    misses its backward-error target even after PCG refinement.
    """
    prep = tape.prep
    op = prep.lp.operator
    c_hat = prep.lp.c
    h = tape.cfg.step_size
    n = prep.lp.n
    m = prep.lp.m

    grad_x = np.asarray(grad_x, dtype=np.float64)
    if grad_x.shape != (n,):
        raise DimensionMismatch(f"grad_x has shape {grad_x.shape}, expected ({n},)")

    # decoded x = M - y on flipped coordinates
    g = np.where(prep.flip_mask, -grad_x, grad_x)
    gc_hat = np.zeros(n)
    gb = np.zeros(m)
    # each step adds outer(p, gu - v*w) - outer(z, u*w) to gA; the 2K
    # vector pairs are stacked and contracted by one GEMM at the end
    K = len(tape.steps)
    left = np.empty((2 * K, m))
    right = np.empty((2 * K, n))

    for k, det in enumerate(reversed(tape.steps)):
        w = det.x_prev / c_hat
        g = np.where(det.clamp_mask, g, 0.0)
        gq = h * g
        # q = w * u, u = A^T p
        gu = w * gq
        # p = S^{-1} b with S = A diag(w) A^T + reg*I: z = S^{-1} (A gu),
        # and the rank-1 gL = -outer(z, p) gives gw = -(A^T z) * u
        z = weighted_solve(op, w, det.reg_used, op.A @ gu, det.factor, tape.cfg.linsolve_tol)
        gb += z
        v = op.AT @ z
        gw = det.u * (gq - v)
        left[k], right[k] = det.p, gu - v * w
        left[K + k], right[K + k] = z, -(det.u * w)
        # w = x / c_hat
        gc_hat -= gw * det.x_prev / c_hat ** 2
        g = (1.0 - h) * g + gw / c_hat
    gA = left.T @ right

    # map working-coordinate gradients back to the original data
    gc = np.where(prep.zero_mask, 0.0, gc_hat)
    gc = np.where(prep.flip_mask, -gc, gc)
    grad_A = gA
    grad_b = gb
    if prep.bound is not None and np.any(prep.flip_mask):
        flipped = np.flatnonzero(prep.flip_mask)
        grad_A = gA.copy()
        grad_A[:, flipped] = -gA[:, flipped] - prep.bound * gb[:, np.newaxis]
    return LpGradients(gc, grad_A, grad_b)


def objective_gradients(tape):
    """Gradients of the reported objective c^T x_final w.r.t. (c, A, b).

    Adds the direct d(c^T x)/dc = x term to the solve-mediated
    gradients, so a zero-length tape gives grad_c = x0 exactly.
    """
    grads = backward(tape, tape.prep.original_c)
    grads.grad_c = grads.grad_c + tape.prep.decode(tape.x_final)
    return grads


def jvp(tape, dc=None, dA=None, db=None):
    """Directional derivative of the decoded final iterate.

    Propagates a perturbation (dc, dA, db) of the original data through
    the recorded forward pass and returns d(x_final).  The adjoint in
    backward is the transpose of this map, which the tests verify via
    dot products.
    """
    prep = tape.prep
    op = prep.lp.operator
    c_hat = prep.lp.c
    h = tape.cfg.step_size
    dc_w, dA_w, db_w = _seed_to_working(tape, dc, dA, db)

    dx = np.zeros(prep.lp.n)
    for det in tape.steps:
        x, p, u = det.x_prev, det.p, det.u
        w = x / c_hat
        dw = dx / c_hat - x * dc_w / c_hat ** 2
        # dL p with dL = dA W A^T + A dW A^T + A W dA^T, never formed
        dAt_p = dA_w.T @ p
        dL_p = dA_w @ (w * u) + op.A @ (dw * u + w * dAt_p)
        dp = weighted_solve(op, w, det.reg_used, db_w - dL_p, det.factor,
                            tape.cfg.linsolve_tol)
        du = dAt_p + op.AT @ dp
        dx = (1.0 - h) * dx + h * (dw * u + w * du)
        dx = np.where(det.clamp_mask, dx, 0.0)
    return np.where(prep.flip_mask, -dx, dx)


def finite_diff_grad(lp, cfg, loss, step_scale=1e-6, x0=None):
    """Central-difference gradients of loss(x_final) w.r.t. (c, A, b).

    Each entry v is displaced by eta = step_scale * (1 + |v|).  The
    forward solves run with early stopping disabled so that every
    evaluation performs the same number of iterations; x0 is passed
    through so the probes share their starting point with the solve
    being checked.
    """
    from .solver import solve
    from .core import StandardFormLP

    lp = validate(lp)

    def run(A, b, c):
        trial = StandardFormLP(A, b, c, box_bound=lp.box_bound)
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
