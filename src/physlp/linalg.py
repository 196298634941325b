"""Regularized SPD solves, their adjoints, and the weighted operator.

Every dynamics step solves (L + reg*I) p = b with L = A W A^T symmetric
positive semidefinite.  WeightedOperator holds a CSR copy of A and one
map Q from w to the values of A diag(w) A^T on the nonzero pattern of
A A^T plus its diagonal.  WeightedGram, op.at(w), computes Q @ w once
and reads every form of L from it: dense, in blocks, sparse, and its
diagonal.  It is the one form of L that spd_solve takes.
spd_solve is the one solve routine, for the forward steps and for the
backward and tangent solves alike.  It factors L + reg*I by Cholesky
up to DIRECT_MAX_DIM rows, calling LAPACK dpotrf and dpotrs directly,
in one of two forms.  Dense, it keeps dpotrf's lower factor as
(c, True), the form scipy.linalg.cho_solve takes.  In blocks, it
eliminates first a set I of rows of A that share no column, whose
block of L + reg*I is the diagonal d_I, and factors only the Schur
complement of that block on the other rows F, as a BlockFactor.  The
operator picks the block form once (its _split) where it saves
BLOCK_MIN_SAVING flops of dpotrf, as on assignment LPs of 150 rows.
Above DIRECT_MAX_DIM rows spd_solve runs Jacobi-preconditioned CG from
zero on the sparse L + reg*I, and factors it densely only as a last
resort.  Given the factor of an earlier solve, it reuses it.
DIRECT_MAX_DIM and the split pick the method, never the values.  The
CG loop, _pcg, does its vector operations as level-1 BLAS calls
(scipy.linalg.blas ddot and daxpy) in place, as numpy's fixed cost per
call outweighs the work on vectors of a few hundred entries.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.linalg.blas import daxpy, ddot
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import Breakdown, DimensionMismatch

# Direct factorization up to this order, CG above it.
DIRECT_MAX_DIM = 512
# Scale factor for the automatic Tikhonov term.
AUTO_REG_SCALE = 1e-10
# Flops of dpotrf that the block factor must save, m^3/3 against
# |F|^3/3 + |F|^2 |I| for the Schur complement, to be used.  Below it
# the block form's extra numpy calls cost more than they save: taken at
# every size, it ran 13% slower on 55-row and 8% slower on 60-row LPs.
BLOCK_MIN_SAVING = 2e5


class _lazy:
    """An attribute computed on first access and then stored on the
    instance, as functools.cached_property, but without the lock that
    cached_property takes on every first access before Python 3.12.
    It is for WeightedGram, which is new at every step and is not
    shared between threads: on Python 3.11 the lock made each of its
    first reads cost about 0.54 us, against 0.19 us without it."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass
class SpdSolveReport:
    """Solution of (L + reg*I) p = b plus solve diagnostics.

    iterations is 0 when the Cholesky factor alone solved the system,
    otherwise the number of CG steps taken.  final_residual is
    ||(L + reg*I) p - b||_2.  factor is the Cholesky factor of L + reg*I,
    which spd_solve(..., factor=) reuses for further right-hand sides:
    LAPACK dpotrf's lower factor as (c, True), the form
    scipy.linalg.cho_solve takes, or a BlockFactor where the operator
    splits its rows.  It is None when CG alone solved the system (above
    DIRECT_MAX_DIM rows, unless the last resort ran) or b is zero.
    """

    p: np.ndarray
    iterations: int
    final_residual: float
    regularization_used: float
    factor: tuple | None = None


class WeightedOperator:
    """A constraint matrix A, held as CSR, and its products with
    A diag(w) A^T.

    A is the CSR matrix and AT its transpose (a CSC view of the same
    arrays).  matvec multiplies by A diag(w) A^T + reg*I through A and
    AT.  at(w) gives the matrix itself, whose entries all come from one
    map Q of w, built on first use (_pattern, see _build_pattern).  Q
    has a row per nonzero of A A^T plus the diagonal, and
    sum_j nnz(a_j)^2 entries: four per column on matching and path LPs,
    but about n*m*m for a dense A.
    """

    def __init__(self, A):
        m, n = A.shape
        # row-major positions of the nonzeros; CSR is built from them
        # directly, at a sixth of the cost of csr_array(A)
        flat = np.flatnonzero(A != 0)
        indptr = np.searchsorted(flat, n * np.arange(m + 1))
        self.A = scipy.sparse.csr_array((A.ravel()[flat], flat % n, indptr), shape=(m, n))
        self.AT = self.A.T

    @cached_property
    def _pattern(self):
        return _build_pattern(self.A.tocsc())

    @cached_property
    def _split(self):
        return _build_split(self._pattern)

    def matvec(self, w, reg):
        """v -> A (w * (A^T v)) + reg*v, the product with A diag(w) A^T + reg*I."""
        A, AT = self.A, self.AT
        return lambda v: A @ (w * (AT @ v)) + reg * v

    def at(self, w):
        """A diag(w) A^T as a WeightedGram, for spd_solve; w must be positive."""
        return WeightedGram(self, w)


class _Pattern(NamedTuple):
    keys: np.ndarray  # row-major positions i*m + k of the entries, sorted
    indptr: np.ndarray  # the same entries as CSR index arrays
    indices: np.ndarray
    Q: scipy.sparse.csc_array  # Q @ w gives their values
    diagonal: np.ndarray  # positions of the diagonal entries


def _build_pattern(C):
    """The entries of A diag(w) A^T that can be nonzero, and the map Q
    from w to their values, as a _Pattern; C is A in CSC.

    Column j adds w_j a_ij a_kj to entry (i, k) for each ordered pair of
    its nonzeros.  The pattern is the deduplicated positions of those
    pairs plus the whole diagonal, so that reg*I has a place in every
    row.  Column j of Q holds the products a_ij a_kj of its pairs, each
    at the row of its entry in the pattern: Q is CSC, grouped by column
    as the pairs are made, so it is built without sorting.
    """
    m, n = C.shape
    count = np.diff(C.indptr)
    col = np.repeat(np.arange(n), count)  # column of each nonzero
    pairs = count[col]
    left = np.repeat(np.arange(C.nnz), pairs)  # each nonzero, once per partner
    offset = np.arange(left.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    right = C.indptr[col[left]] + offset  # the partners, same column
    flat = C.indices[left].astype(np.int64) * m + C.indices[right]
    keys = np.concatenate((flat, np.arange(m, dtype=np.int64) * (m + 1)))
    keys, entry = np.unique(keys, return_inverse=True)
    Q_indptr = np.concatenate(([0], np.cumsum(count * count)))
    Q = scipy.sparse.csc_array((C.data[left] * C.data[right], entry[:flat.size], Q_indptr),
                               shape=(keys.size, n))
    indptr = np.searchsorted(keys, m * np.arange(m + 1))
    return _Pattern(keys, indptr, keys % m, Q, entry[flat.size:])


class _Split(NamedTuple):
    I: np.ndarray  # rows that share no column, eliminated first
    F: np.ndarray  # the other rows
    # where the entries of diag(S_II), S_FF and S_FI sit among the
    # pattern's values, in those blocks' shapes; an entry outside the
    # pattern points one past the values, at an appended zero
    diagonal: np.ndarray
    ff: np.ndarray
    fi: np.ndarray


def _build_split(pattern):
    """The rows of the block factor as a _Split, or None where it would
    save fewer than BLOCK_MIN_SAVING flops of dpotrf.

    I is a maximal set of rows that share no column, so that the I x I
    block of A diag(w) A^T is diagonal for every w; it is picked
    greedily, rows of fewest neighbours in the pattern of A A^T first.
    On an assignment LP these are the rows of the larger side.
    """
    m = pattern.indptr.size - 1
    if m ** 3 / 3 < BLOCK_MIN_SAVING:
        return None
    chosen = np.zeros(m, dtype=bool)
    free = np.ones(m, dtype=bool)
    indptr = pattern.indptr.tolist()  # Python ints index faster
    for i in np.argsort(np.diff(pattern.indptr), kind="stable").tolist():
        if free[i]:
            chosen[i] = True
            free[pattern.indices[indptr[i]:indptr[i + 1]]] = False
    I, F = np.flatnonzero(chosen), np.flatnonzero(~chosen)
    if m ** 3 / 3 - F.size ** 3 / 3 - F.size ** 2 * I.size < BLOCK_MIN_SAVING:
        return None
    at = np.full(m * m, pattern.keys.size)
    at[pattern.keys] = np.arange(pattern.keys.size)
    at = at.reshape(m, m)
    return _Split(I, F, at[I, I], at[np.ix_(F, F)], at[np.ix_(F, I)])


class _Blocks(NamedTuple):
    """S = A diag(w) A^T + reg*I in the blocks of a _Split: S_II =
    diag(d), S_FI = B and S_FF = FF."""

    FF: np.ndarray
    B: np.ndarray
    d: np.ndarray
    I: np.ndarray
    F: np.ndarray

    def __matmul__(self, p):
        pI, pF = p[self.I], p[self.F]
        out = np.empty(p.size)
        out[self.I] = self.d * pI + pF @ self.B
        out[self.F] = self.B @ pI + self.FF @ pF
        return out


class BlockFactor(NamedTuple):
    """The Cholesky factor of S = A diag(w) A^T + reg*I with the rows I
    first, whose block S_II = diag(d) has the factor diag(sqrt(d)): the
    block S_FI = B and dpotrf's lower factor c of the Schur complement
    S_FF - B diag(1/d) B^T.  It holds |F|^2 + |F| |I| + |I| floats,
    not m^2."""

    c: np.ndarray
    B: np.ndarray
    d: np.ndarray
    I: np.ndarray
    F: np.ndarray


@dataclass
class WeightedGram:
    """A diag(w) A^T, the one form of L that spd_solve takes: built from
    a validated A and w > 0, so not checked.

    Its values on the operator's pattern, Q @ w, are computed once, on
    first use, and every form is read from them: sparse(reg) for CG
    steps, direct(reg) for direct ones, and the diagonal behind
    default_regularization and the Jacobi preconditioner of spd_solve.
    """

    op: WeightedOperator
    w: np.ndarray

    @_lazy
    def _values(self):
        return self.op._pattern.Q @ self.w

    @_lazy
    def _diagonal(self):
        return self._values[self.op._pattern.diagonal]

    def sparse(self, reg):
        """A diag(w) A^T + reg*I as a CSR matrix with sorted indices."""
        pattern = self.op._pattern
        m = pattern.indptr.size - 1
        data = self._values.copy()
        data[pattern.diagonal] += reg
        return scipy.sparse.csr_array((data, pattern.indices, pattern.indptr), shape=(m, m))

    def dense(self, reg):
        """A diag(w) A^T + reg*I as a dense array: the values scattered
        to their row-major positions, then reg added on the diagonal."""
        pattern = self.op._pattern
        m = pattern.indptr.size - 1
        S = np.zeros(m * m)
        S[pattern.keys] = self._values
        S[::m + 1] += reg
        return S.reshape(m, m)

    def direct(self, reg):
        """A diag(w) A^T + reg*I for a direct solve: its _Blocks where the
        operator splits its rows, dense(reg) otherwise.  The blocks are
        gathered from the values, never from an m-by-m array."""
        split = self.op._split
        if split is None:
            return self.dense(reg)
        values = np.append(self._values, 0.0)
        values[self.op._pattern.diagonal] += reg
        return _Blocks(values[split.ff], values[split.fi], values[split.diagonal],
                       split.I, split.F)

    def default_regularization(self):
        """The trace-scaled Tikhonov term 1e-10 * trace / m, from the
        diagonal."""
        return AUTO_REG_SCALE * float(self._diagonal.sum()) / self._diagonal.size


def _norm(v):
    """||v||_2 as sqrt(ddot(v, v)).  np.linalg.norm of a real vector is
    sqrt(v @ v), and numpy's 1-D @ calls a BLAS ddot too: the two agreed
    bit for bit on 2,000 random vectors of up to 2,000 entries.  At a
    few hundred entries this takes a quarter of norm's time."""
    return math.sqrt(ddot(v, v))


def _pcg(S_matvec, b, diag, x0, target, max_iters):
    """Jacobi-preconditioned CG from x0 (zero when None) down to absolute
    residual target; returns (x, iterations, ||S x - b||).

    A negative diagonal entry makes S indefinite, so CG does not start:
    its Jacobi scale, 1/tiny, would overflow the first step.  Only the
    product S @ d and the Jacobi scaling are numpy or scipy calls; every
    other vector operation is a level-1 BLAS call, ddot or an in-place
    daxpy, which on vectors of a few hundred entries takes a fifth to a
    quarter of the time of the numpy call it replaces.  daxpy fuses its
    multiply and add, so the iterates differ from numpy's
    x += alpha * d at rounding level.  f2py writes in place only into a contiguous
    float64 y and returns an updated copy of anything else, so its
    return value is always bound; it writes into a read-only y too, so
    r starts as a copy, never as b.
    """
    inv_diag = 1.0 / np.maximum(diag, np.finfo(np.float64).tiny)
    if x0 is None:
        x, r = np.zeros(b.shape[0]), b.copy()
    else:
        x = x0.copy()
        r = b - S_matvec(x)
    rnorm = _norm(r)
    if rnorm <= target or diag.min() < 0.0:
        return x, 0, rnorm
    z = inv_diag * r
    d = z.copy()
    rz = ddot(r, z)
    for k in range(1, max_iters + 1):
        Sd = S_matvec(d)
        dSd = ddot(d, Sd)
        if not 0.0 < dSd < math.inf:
            break
        alpha = rz / dSd
        x = daxpy(d, x, a=alpha)
        r = daxpy(Sd, r, a=-alpha)
        rnorm = _norm(r)
        if rnorm <= target:
            return x, k, rnorm
        np.multiply(inv_diag, r, out=z)
        rz_next = ddot(r, z)
        # d <- z + (rz_next / rz) d, written into z's buffer, which then
        # becomes d while the old d's buffer takes the next z
        d, z = daxpy(d, z, a=rz_next / rz), d
        rz = rz_next
    return x, max_iters, _norm(b - S_matvec(x))


def spd_solve(L, b, tol=1e-10, reg=None, factor=None):
    """Solve (L + reg*I) p = b for L = A diag(w) A^T.

    L is the WeightedGram op.at(w), and anything else raises TypeError.
    It is assembled by direct(reg), dense or in blocks, up to
    DIRECT_MAX_DIM rows and sparse above.  reg=None applies the
    trace-scaled default.  factor, a Cholesky factor of L + reg*I, dense
    or a BlockFactor (SpdSolveReport.factor of an earlier solve with
    it), is reused; products then go through op.matvec instead of the
    assembled matrix.

    With a factor or up to DIRECT_MAX_DIM rows, Cholesky runs first and
    Jacobi-PCG refines an answer that misses; above, PCG runs from zero
    down to ||(L + reg*I) p - b|| <= tol * ||b|| and the Cholesky
    factor is the last resort.  p is accepted on normwise backward
    error,

        ||S p - b|| <= tol * (||b|| + max(diag(S)) * ||p||),

    S = L + reg*I, with max(diag(S)) estimating ||S||, so that a
    right-hand side far below the rounding error of S p does not fail.
    Breakdown is raised when no answer is accepted.
    """
    if not isinstance(L, WeightedGram):
        raise TypeError(f"spd_solve takes L as op.at(w), a WeightedGram, not {type(L).__name__}")
    m = b.shape[0]
    reg = L.default_regularization() if reg is None else float(reg)
    bnorm = _norm(b)
    if bnorm == 0.0:
        return SpdSolveReport(np.zeros(m), 0, 0.0, reg)
    target = tol * bnorm

    # cf, p and res: the direct answer, or None, None and inf
    cf = p = None
    res = math.inf
    if factor is not None:
        matvec = L.op.matvec(L.w, reg)
        cf, p = _cholesky(None, b, factor)
    elif m <= DIRECT_MAX_DIM:
        S = L.direct(reg)
        matvec = S.__matmul__
        cf, p = _cholesky(S, b)
    else:
        S = L.sparse(reg)
        matvec = S.__matmul__
    if cf is not None:
        res = _norm(matvec(p) - b)
        if res <= target:
            return SpdSolveReport(p, 0, res, reg, cf)
    # the normwise backward-error test: res <= target + slack * ||p||
    jacobi = L._diagonal + reg
    slack = tol * float(jacobi.max())
    if cf is not None and res <= target + slack * _norm(p):
        return SpdSolveReport(p, 0, res, reg, cf)
    p, iters, res = _pcg(matvec, b, jacobi, p, target, 10 * m)
    if res <= target + slack * _norm(p):
        return SpdSolveReport(p, iters, res, reg, cf)
    if factor is None and m > DIRECT_MAX_DIM:  # the last resort
        cf, p_direct = _cholesky(S.toarray(), b)
        if cf is not None:
            res_direct = _norm(matvec(p_direct) - b)
            if res_direct <= target + slack * _norm(p_direct):
                return SpdSolveReport(p_direct, iters, res_direct, reg, cf)
    raise Breakdown(f"residual {res:.3e} above target {target:.3e} after factoring and PCG")


def _cholesky(S, b, cf=None):
    """(factor, S^{-1} b) by Cholesky, with the factor cf of S when one
    is given, or (None, None) when the factorization fails or gives a
    non-finite solution.  S is dense or _Blocks, which give a
    BlockFactor, through one GEMM and a dpotrf of order |F|, and are
    solved by two GEMVs around a dpotrs.  LAPACK is called directly:
    scipy's cho_factor and cho_solve make the same calls but cost as
    much again in their wrappers at m ~ 50."""
    if cf is None:
        if isinstance(S, _Blocks):
            if not S.d.min() > 0.0:
                return None, None
            c, info = dpotrf(S.FF - (S.B / S.d) @ S.B.T, lower=1, clean=0, overwrite_a=1)
            cf = BlockFactor(c, S.B, S.d, S.I, S.F)
        else:
            c, info = dpotrf(S, lower=1, clean=0)
            cf = (c, True)
        if info != 0:
            return None, None
    if isinstance(cf, BlockFactor):
        c, B, d, I, F = cf
        t = b[I] / d
        # dpotrs refuses an empty system, which F is when A A^T is diagonal
        pF, info = dpotrs(c, b[F] - B @ t, lower=1) if F.size else (np.empty(0), 0)
        p = np.empty(b.size)
        p[F], p[I] = pF, t - (pF @ B) / d
    else:
        p, info = dpotrs(cf[0], b, lower=cf[1])
    return (cf, p) if info == 0 and np.isfinite(p).all() else (None, None)


def spd_solve_adjoint(L, p, grad_p, tol=1e-10, reg=None):
    """Reverse-mode rule for p = (L + reg*I)^{-1} b, L = op.at(w) as
    spd_solve takes it.

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
