"""Regularized SPD solves, their adjoints, and the weighted operator.

Every dynamics step solves (L + reg*I) p = b with L = A W A^T symmetric
positive semidefinite.  WeightedOperator holds a CSR copy of A and
computes every product with A diag(w) A^T through it.  Up to
DIRECT_MAX_DIM rows the step assembles L through it and spd_solve
factors L by Cholesky, with conjugate gradients as the fallback.  Above that the step calls
matrix_free_solve, which never forms L: Jacobi-preconditioned CG
applies v -> A (w * A^T v) + reg*v, and L is assembled and factored
only as a last resort, so such steps store no factor.  weighted_solve,
used by backward and jvp, applies the same operator.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import Breakdown, DimensionMismatch, NonFiniteEntry, NotSymmetric

# Direct factorization up to this order, CG above it.
DIRECT_MAX_DIM = 512
# Relative max-norm tolerance for the symmetry check.
SYMMETRY_TOL = 1e-10
# Scale factor for the automatic Tikhonov term.
AUTO_REG_SCALE = 1e-10


@dataclass
class SpdSolveReport:
    """Solution of (L + reg*I) p = b plus solve diagnostics.

    iterations is 0 when the direct path succeeded, otherwise the number
    of CG steps taken.  final_residual is ||(L + reg*I) p - b||_2.
    factor is the Cholesky factor of L + reg*I in scipy's cho_factor
    form when one was computed, None when CG alone solved the system;
    weighted_solve reuses it for further right-hand sides.
    """

    p: np.ndarray
    iterations: int
    final_residual: float
    regularization_used: float
    factor: tuple | None = None


def default_regularization(L):
    """Trace-scaled Tikhonov term, 1e-10 * trace(L) / m."""
    m = L.shape[0]
    return AUTO_REG_SCALE * float(np.trace(L)) / m


class WeightedOperator:
    """A constraint matrix A, held as CSR, and its products with
    A diag(w) A^T.

    A is the CSR matrix and AT its transpose (a CSC view of the same
    arrays).  gram is one sparse product P @ w, with P built on the
    first gram call (_gram_pattern), so operators whose steps run
    matrix-free do not pay for it.  P has sum_j nnz(a_j)^2 entries: two
    per column on matching and path LPs, but n*m*m for a dense A.
    """

    def __init__(self, A):
        m, n = A.shape
        # row-major positions of the nonzeros; CSR is built from them
        # directly, at a sixth of the cost of csr_array(A)
        flat = np.flatnonzero(A != 0)
        indptr = np.searchsorted(flat, n * np.arange(m + 1))
        data, indices = A.ravel()[flat], flat % n
        self.A = scipy.sparse.csr_array((data, indices, indptr), shape=(m, n))
        self.AT = self.A.T
        self._A_sq = scipy.sparse.csr_array((data * data, indices, indptr), shape=(m, n))

    @cached_property
    def _gram(self):
        return _gram_pattern(self.A.tocsc())

    def gram(self, w):
        """A diag(w) A^T as a dense array."""
        m = self.A.shape[0]
        return (self._gram @ w).reshape(m, m)

    def diag(self, w):
        """The diagonal of A diag(w) A^T, (A * A) w."""
        return self._A_sq @ w

    def matvec(self, w, reg):
        """v -> A (w * (A^T v)) + reg*v, the product with A diag(w) A^T + reg*I."""
        A, AT = self.A, self.AT
        return lambda v: A @ (w * (AT @ v)) + reg * v

    def default_regularization(self, w):
        """default_regularization of A diag(w) A^T without forming it."""
        return AUTO_REG_SCALE * float(self.diag(w).sum()) / self.A.shape[0]


def _gram_pattern(C):
    """A diag(w) A^T, flattened row-major, as a linear map P of w.

    C is A in CSC.  Column j adds w_j a_ij a_kj to entry (i, k) for each
    ordered pair of its nonzeros, so column j of P holds a_ij a_kj at
    row i*m + k.  P is CSC, built from the pairs without sorting.
    """
    m, n = C.shape
    count = np.diff(C.indptr)
    col = np.repeat(np.arange(n), count)  # column of each nonzero
    pairs = count[col]
    left = np.repeat(np.arange(C.nnz), pairs)  # each nonzero, once per partner
    offset = np.arange(left.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    right = C.indptr[col[left]] + offset  # the partners, same column
    rows = C.indices[left].astype(np.int64) * m + C.indices[right]
    indptr = np.concatenate(([0], np.cumsum(count * count)))
    return scipy.sparse.csc_array((C.data[left] * C.data[right], rows, indptr), shape=(m * m, n))


def _check_spd_inputs(L, b):
    L = np.asarray(L, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DimensionMismatch(f"L must be square, got shape {L.shape}")
    if b.shape != (L.shape[0],):
        raise DimensionMismatch(f"b has shape {b.shape}, expected ({L.shape[0]},)")
    if not np.all(np.isfinite(L)):
        raise NonFiniteEntry("L contains a non-finite entry")
    if not np.all(np.isfinite(b)):
        raise NonFiniteEntry("b contains a non-finite entry")
    scale = max(1.0, float(np.max(np.abs(L))))
    asym = float(np.max(np.abs(L - L.T)))
    if asym > SYMMETRY_TOL * scale:
        raise NotSymmetric(f"max |L - L^T| = {asym:.3e} exceeds {SYMMETRY_TOL:.0e} * {scale:.3e}")
    return L, b


def _pcg(S_matvec, b, diag, x0, target, max_iters):
    """Jacobi-preconditioned CG down to absolute residual target."""
    inv_diag = 1.0 / np.maximum(diag, np.finfo(np.float64).tiny)
    x = x0.copy()
    r = b - S_matvec(x)
    if np.linalg.norm(r) <= target:
        return x, 0, float(np.linalg.norm(r))
    z = inv_diag * r
    d = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iters + 1):
        Sd = S_matvec(d)
        dSd = float(d @ Sd)
        if dSd <= 0.0 or not np.isfinite(dSd):
            break
        alpha = rz / dSd
        x += alpha * d
        r -= alpha * Sd
        rnorm = float(np.linalg.norm(r))
        if rnorm <= target:
            return x, k, rnorm
        z = inv_diag * r
        rz_next = float(r @ z)
        d = z + (rz_next / rz) * d
        rz = rz_next
    return x, max_iters, float(np.linalg.norm(b - S_matvec(x)))


def spd_solve(L, b, tol=1e-10, reg=None):
    """Solve (L + reg*I) p = b for symmetric positive (semi)definite L.

    reg=None applies the trace-scaled default.  The achieved residual
    satisfies ||(L + reg*I) p - b|| <= tol * ||b|| or Breakdown is
    raised after both the direct and iterative paths have failed.
    """
    L, b = _check_spd_inputs(L, b)
    m = L.shape[0]
    if reg is None:
        reg = default_regularization(L)
    reg = float(reg)

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SpdSolveReport(np.zeros(m), 0, 0.0, reg)
    target = tol * bnorm

    S = L + reg * np.eye(m)

    def matvec(v):
        return S @ v

    def residual_of(p):
        return float(np.linalg.norm(S @ p - b))

    if m <= DIRECT_MAX_DIM:
        cf, p_direct = _cholesky(S, b)
        if cf is not None:
            res = residual_of(p_direct)
            if res <= target:
                return SpdSolveReport(p_direct, 0, res, reg, cf)
        # direct path missed the tolerance; let CG refine it
        x0 = p_direct if cf is not None else np.zeros(m)
        p, iters, res = _pcg(matvec, b, np.diag(S), x0, target, 10 * m)
        if res <= target:
            return SpdSolveReport(p, iters, res, reg, cf)
        raise Breakdown(f"residual {res:.3e} above target {target:.3e} after direct and CG attempts")

    p, iters, res, cf = _cg_then_cholesky(matvec, np.diag(S), b, target, lambda: S)
    return SpdSolveReport(p, iters, res, reg, cf)


def matrix_free_solve(op, w, b, tol=1e-10, reg=None):
    """spd_solve for L = A diag(w) A^T without forming L.

    op is the WeightedOperator of A.  Jacobi-PCG runs on op.matvec with
    the diagonal op.diag(w) + reg; L is assembled through op and
    factored only when PCG misses tol * ||b||, and only then does the
    report carry a factor.  reg=None applies the trace-scaled default.
    The acceptance rule and Breakdown are those of spd_solve.
    """
    m = b.shape[0]
    if reg is None:
        reg = op.default_regularization(w)
    reg = float(reg)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SpdSolveReport(np.zeros(m), 0, 0.0, reg)
    p, iters, res, cf = _cg_then_cholesky(op.matvec(w, reg), op.diag(w) + reg, b, tol * bnorm,
                                          lambda: op.gram(w) + reg * np.eye(m))
    return SpdSolveReport(p, iters, res, reg, cf)


def _cg_then_cholesky(matvec, diag, b, target, assemble):
    """Large-system path: PCG from zero, then a Cholesky factorization of
    the explicit matrix assemble() as a last resort.  Returns
    (p, CG iterations, residual, factor or None)."""
    m = b.shape[0]
    p, iters, res = _pcg(matvec, b, diag, np.zeros(m), target, 10 * m)
    if res <= target:
        return p, iters, res, None
    S = assemble()
    cf, p_direct = _cholesky(S, b)
    if cf is not None:
        res_direct = float(np.linalg.norm(S @ p_direct - b))
        if res_direct <= target:
            return p_direct, iters, res_direct, cf
    raise Breakdown(f"residual {res:.3e} above target {target:.3e} after CG and direct attempts")


def _cholesky(S, b):
    """(factor, S^{-1} b) by Cholesky, or (None, None) when the
    factorization fails or gives a non-finite solution."""
    try:
        cf = scipy.linalg.cho_factor(S, lower=True, check_finite=False)
        p = scipy.linalg.cho_solve(cf, b, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None, None
    return (cf, p) if np.all(np.isfinite(p)) else (None, None)


def weighted_solve(op, w, reg, rhs, factor=None, tol=1e-10):
    """Solve (A diag(w) A^T + reg*I) z = rhs without forming the matrix.

    op is the WeightedOperator of A and factor a Cholesky factor of that
    matrix (SpdSolveReport.factor of the solve that built it).  Products
    with the matrix go through op.matvec.  z is accepted on backward error,

        ||S z - rhs|| <= tol * (||S|| ||z|| + ||rhs||),

    with ||S|| estimated by the largest diagonal entry, so that a
    right-hand side far smaller than S z's rounding error does not
    fail.  A factored solution that misses that target, and the solve
    without a factor, run Jacobi-PCG towards tol * ||rhs|| as spd_solve
    does; Breakdown is raised when its result misses the target too.
    """
    m = rhs.shape[0]
    matvec = op.matvec(w, reg)
    z = np.zeros(m)
    if factor is not None:
        z = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
        if not np.all(np.isfinite(z)):
            z = np.zeros(m)
    target = tol * float(np.linalg.norm(rhs))
    res = float(np.linalg.norm(matvec(z) - rhs))
    if res <= target:
        return z
    diag = op.diag(w) + reg
    z_weight = tol * float(diag.max())
    if factor is None or res > target + z_weight * float(np.linalg.norm(z)):
        z, _, res = _pcg(matvec, rhs, diag, z, target, 10 * m)
    bound = target + z_weight * float(np.linalg.norm(z))
    if res > bound:
        raise Breakdown(f"residual {res:.3e} above the backward-error target {bound:.3e} after PCG")
    return z


def spd_solve_adjoint(L, p, grad_p, tol=1e-10, reg=None):
    """Reverse-mode rule for p = (L + reg*I)^{-1} b.

    Given d(loss)/dp, returns (grad_L, grad_b) where

        grad_b = (L + reg*I)^{-1} grad_p        (L symmetric)
        grad_L = -outer(grad_b, p)

    reg must match the value used in the forward solve.
    """
    p = np.asarray(p, dtype=np.float64)
    grad_p = np.asarray(grad_p, dtype=np.float64)
    if grad_p.shape != p.shape:
        raise DimensionMismatch(f"grad_p has shape {grad_p.shape}, expected {p.shape}")
    report = spd_solve(L, grad_p, tol=tol, reg=reg)
    grad_b = report.p
    grad_L = -np.outer(grad_b, p)
    return grad_L, grad_b
