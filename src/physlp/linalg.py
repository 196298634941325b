"""Regularized SPD solves, their adjoints, and the weighted operator.

Every dynamics step solves (L + reg*I) p = b with L = A W A^T symmetric
positive semidefinite.  WeightedOperator holds a CSR copy of A and
computes every product with A diag(w) A^T through it.  spd_solve, the
one entry point at every size, factors L by Cholesky up to
DIRECT_MAX_DIM rows; above, it runs Jacobi-preconditioned CG on
v -> A (w * A^T v) + reg*v and factors L only as a last resort.
weighted_solve, used by backward and jvp, reuses a stored factor; both
run _solve, the one factor, refine and fall-back routine.
"""

from dataclasses import dataclass
from functools import cached_property, partial

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

    iterations is 0 when the Cholesky factor alone solved the system,
    otherwise the number of CG steps taken.  final_residual is
    ||(L + reg*I) p - b||_2.  factor is the Cholesky factor of L + reg*I
    in scipy's cho_factor form, None when CG alone solved the system
    (above DIRECT_MAX_DIM rows, unless the last resort ran);
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

    def at(self, w):
        """A diag(w) A^T as a WeightedGram, for spd_solve; w must be positive."""
        return WeightedGram(self, w)


@dataclass
class WeightedGram:
    """A diag(w) A^T as spd_solve takes it from the solver: built from a
    validated A and w > 0, so not checked.  The matrix (dense) and its
    diagonal (diag) are computed on first use."""

    op: WeightedOperator
    w: np.ndarray

    @cached_property
    def dense(self):
        return self.op.gram(self.w)

    @cached_property
    def diag(self):
        return self.op.diag(self.w)

    def cholesky(self, reg, b):
        """_cholesky of A diag(w) A^T + reg*I and b."""
        return _cholesky(self.dense + reg * np.eye(b.shape[0]), b)

    def default_regularization(self):
        """default_regularization of the matrix, with the trace spd_solve
        reads at this size: of dense up to DIRECT_MAX_DIM rows, else diag."""
        m = self.op.A.shape[0]
        trace = np.trace(self.dense) if m <= DIRECT_MAX_DIM else self.diag.sum()
        return AUTO_REG_SCALE * float(trace) / m


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

    L is a dense array, checked for shape, finiteness and symmetry, or
    the unchecked WeightedGram op.at(w) of the solver, applied
    matrix-free above DIRECT_MAX_DIM rows.  reg=None applies the
    trace-scaled default.  The achieved residual satisfies
    ||(L + reg*I) p - b|| <= tol * ||b|| or Breakdown is raised after
    both Cholesky and Jacobi-PCG have failed (see _solve).
    """
    weighted = isinstance(L, WeightedGram)
    if not weighted:
        L, b = _check_spd_inputs(L, b)
    m = b.shape[0]
    if reg is None:
        reg = L.default_regularization() if weighted else default_regularization(L)
    reg = float(reg)

    if weighted and m > DIRECT_MAX_DIM:
        matvec, diag = L.op.matvec(L.w, reg), lambda: L.diag + reg
        direct = partial(L.cholesky, reg, b)
    else:
        S = (L.dense if weighted else L) + reg * np.eye(m)
        matvec, diag = partial(np.matmul, S), partial(np.diag, S)
        direct = partial(_cholesky, S, b)
    p, iters, res, cf = _solve(b, tol, matvec, diag, direct, m <= DIRECT_MAX_DIM)
    return SpdSolveReport(p, iters, res, reg, cf)


def weighted_solve(op, w, reg, rhs, factor=None, tol=1e-10):
    """Solve (A diag(w) A^T + reg*I) z = rhs without forming the matrix.

    op is the WeightedOperator of A and factor a Cholesky factor of that
    matrix (SpdSolveReport.factor of the solve that built it).  Products
    with the matrix go through op.matvec.  z is accepted on backward error,

        ||S z - rhs|| <= tol * (||S|| ||z|| + ||rhs||),

    with ||S|| estimated by the largest diagonal entry, so that a
    right-hand side far smaller than S z's rounding error does not
    fail.  PCG refines a factored solution that misses the target;
    without a factor PCG runs first and the Cholesky factor of the
    assembled matrix is the last resort (see _solve).
    """
    gram = op.at(w)
    direct = (partial(gram.cholesky, reg, rhs) if factor is None
              else partial(_cholesky, None, rhs, factor))
    return _solve(rhs, tol, op.matvec(w, reg), lambda: gram.diag + reg, direct,
                  factor is not None, tol)[0]


def _solve(b, tol, matvec, diag, direct, direct_first, z_tol=0.0):
    """Solve S p = b for SPD S, the routine behind spd_solve and
    weighted_solve.  direct() returns (Cholesky factor, p) or
    (None, None).  With direct_first it runs first and Jacobi-PCG
    (matvec, and diag() for the diagonal of S, called only then)
    refines an answer that misses; otherwise PCG runs from zero and
    direct() is the last resort.  p is accepted when ||S p - b|| <=
    tol * ||b|| + z_tol * max(diag) * ||p||.  Returns (p, PCG
    iterations, residual, factor or None); raises Breakdown."""
    m = b.shape[0]
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(m), 0, 0.0, None
    target = tol * bnorm

    def attempt():
        cf, p = direct()
        return cf, p, float(np.linalg.norm(matvec(p) - b)) if cf is not None else np.inf

    cf, p, res = attempt() if direct_first else (None, None, np.inf)
    if res <= target:
        return p, 0, res, cf
    jacobi = diag()
    z_weight = z_tol * float(jacobi.max())

    def accepted(p, res):
        return res <= target + z_weight * float(np.linalg.norm(p))

    if cf is not None and accepted(p, res):
        return p, 0, res, cf
    x0 = p if cf is not None else np.zeros(m)
    p, iters, res = _pcg(matvec, b, jacobi, x0, target, 10 * m)
    if accepted(p, res):
        return p, iters, res, cf
    if not direct_first:
        cf, p_direct, res_direct = attempt()
        if cf is not None and accepted(p_direct, res_direct):
            return p_direct, iters, res_direct, cf
    raise Breakdown(f"residual {res:.3e} above target {target:.3e} after factoring and PCG")


def _cholesky(S, b, cf=None):
    """(factor, S^{-1} b) by Cholesky, with the factor cf of S when one
    is given, or (None, None) when the factorization fails or gives a
    non-finite solution."""
    try:
        if cf is None:
            cf = scipy.linalg.cho_factor(S, lower=True, check_finite=False)
        p = scipy.linalg.cho_solve(cf, b, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None, None
    return (cf, p) if np.all(np.isfinite(p)) else (None, None)


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
