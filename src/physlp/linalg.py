"""Regularized SPD solves, their adjoints, and the weighted operator.

Every dynamics step solves (L + reg*I) p = b with L = A W A^T symmetric
positive semidefinite.  WeightedOperator holds A, the LP's own CSR
array, and one map Q from w to the values of A diag(w) A^T, written in
the layout that the solve route of its row count reads: the row-major
m-by-m matrix on the dense route, the blocks [diag(S_II) | S_FF |
S_FI] where the rows split, and the CSR data on the pattern of A A^T
plus its diagonal above DIRECT_MAX_DIM.  WeightedGram, op.at(w),
computes Q @ w once and keeps it: every form of L is read from it,
dense, in blocks or sparse, by writing reg onto its diagonal, and its
diagonal is copied aside.  It is the one form of L that spd_solve takes.
spd_solve is the one solve routine, for the forward steps and for the
backward and tangent solves alike.  It factors L + reg*I by Cholesky
up to DIRECT_MAX_DIM rows, calling LAPACK dpotrf and dpotrs directly,
in one of two forms.  Dense, it keeps dpotrf's lower factor as
(c, True), the form scipy.linalg.cho_solve takes.  In blocks, it
eliminates first a set I of rows of A that share no column, whose
block of L + reg*I is the diagonal d_I, and factors only the Schur
complement of that block on the other rows F, as a BlockFactor.  The
operator picks the block form once, in its _pattern, where it saves
BLOCK_MIN_SAVING flops of dpotrf, as on assignment LPs of 150 rows.
Above DIRECT_MAX_DIM rows spd_solve runs Jacobi-preconditioned CG from
zero on the sparse L + reg*I, and factors it densely only as a last
resort.  Given the factor of an earlier solve, it reuses it, and
checks and refines its answer against the gram's own matrix.
DIRECT_MAX_DIM and the split pick the method, never the values.  The
CG loop, _pcg, does its vector operations as level-1 BLAS calls
(scipy.linalg.blas ddot and daxpy) in place, as numpy's fixed cost per
call outweighs the work on vectors of a few hundred entries.
"""

import math
from dataclasses import dataclass, field
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
    """A constraint matrix A, a scipy.sparse.csr_array, and its map from
    w to A diag(w) A^T.

    A is kept, not copied: an LP's operator holds the LP's own A.  AT
    is its transpose (a CSC view of the same arrays).  at(w) gives
    A diag(w) A^T, whose entries all come from one map Q of w, built on
    first use (_pattern, see _build_pattern), in the layout that the
    solve route of A's row count reads.  Q has sum_j nnz(a_j)^2
    entries, fewer in the block layout: four per column on matching and
    path LPs, but about n*m*m for a dense A.  _pattern.split is the
    row split of the block layout, or None.
    """

    def __init__(self, A):
        self.A = A
        self.AT = A.T

    @cached_property
    def _pattern(self):
        return _build_pattern(self.A.tocsc())

    def at(self, w):
        """A diag(w) A^T as a WeightedGram, for spd_solve; w must be positive."""
        return WeightedGram(self, w)


class _Split(NamedTuple):
    I: np.ndarray  # rows that share no column, eliminated first
    F: np.ndarray  # the other rows


class _Pattern(NamedTuple):
    indptr: np.ndarray  # the entries as CSR index arrays
    indices: np.ndarray
    split: _Split | None  # the rows of the block layout, or None
    Q: scipy.sparse.csc_array  # Q @ w gives the values in the layout
    diagonal: np.ndarray  # positions of the m diagonal entries among them
    # positions of the pattern's entries among them: all, in order
    # (a slice) in the CSR layout
    entries: np.ndarray | slice


def _build_pattern(C):
    """The entries of A diag(w) A^T that can be nonzero, and the map Q
    from w to their values, as a _Pattern; C is A in CSC.

    Column j adds w_j a_ij a_kj to entry (i, k) for each ordered pair of
    its nonzeros.  The pattern is the deduplicated positions of those
    pairs plus the whole diagonal, so that reg*I has a place in every
    row.  Column j of Q holds the products a_ij a_kj of its pairs, each
    at the position of its entry in the layout that the route of m rows
    reads, so that Q @ w is that matrix with nothing to gather:

    - above DIRECT_MAX_DIM rows, for CG, the pattern's entries in CSR
      order, the data of the sparse matrix;
    - up to it, where the operator splits its rows (_build_split), the
      blocks [diag(S_II) | S_FF | S_FI], each row-major; Q holds no
      pair of S_IF, which is S_FI transposed;
    - otherwise the row-major m-by-m matrix.

    Q is CSC, grouped by column as the pairs are made, so it is built
    without sorting, and Q @ w sums each entry's products in the order
    of their columns in every layout.
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
    indptr = np.searchsorted(keys, m * np.arange(m + 1))
    indices = keys % m
    split = None if m > DIRECT_MAX_DIM else _build_split(indptr, indices)
    own = np.ones(keys.size, dtype=bool)
    if m > DIRECT_MAX_DIM:
        size, at = keys.size, np.arange(keys.size)
    elif split is None:
        size, at = m * m, keys
    else:
        size = split.I.size + split.F.size * m
        at, own = _block_positions(keys // m, indices, split)
    pair = entry[:flat.size]
    kept = own[pair]
    Q_indptr = np.concatenate(([0], np.cumsum(np.bincount(col[left[kept]], minlength=n))))
    Q = scipy.sparse.csc_array(((C.data[left] * C.data[right])[kept], at[pair[kept]], Q_indptr),
                               shape=(size, n))
    entries = slice(None) if m > DIRECT_MAX_DIM else at
    return _Pattern(indptr, indices, split, Q, at[entry[flat.size:]], entries)


def _block_positions(rows, cols, split):
    """Where the entries (rows, cols) sit among [diag(S_II) | S_FF |
    S_FI], and whether they are their own: an entry of S_IF sits at the
    place of its transpose in S_FI."""
    I, F = split
    first = np.zeros(I.size + F.size, dtype=bool)
    first[I] = True
    index = np.empty(first.size, dtype=np.int64)  # within I or within F
    index[I], index[F] = np.arange(I.size), np.arange(F.size)
    own = ~first[rows] | first[cols]
    rows, cols = np.where(own, rows, cols), np.where(own, cols, rows)
    at = np.where(first[cols], I.size + F.size ** 2 + index[rows] * I.size + index[cols],
                  I.size + index[rows] * F.size + index[cols])
    # both rows in I: a diagonal entry, as no two rows of I share a column
    at = np.where(first[rows], index[rows], at)
    return at, own


def _build_split(indptr, indices):
    """The rows of the block factor as a _Split, or None where it would
    save fewer than BLOCK_MIN_SAVING flops of dpotrf; indptr and indices
    are the pattern of A A^T as CSR index arrays.

    I is a maximal set of rows that share no column, so that the I x I
    block of A diag(w) A^T is diagonal for every w; it is picked
    greedily, rows of fewest neighbours in the pattern of A A^T first.
    On an assignment LP these are the rows of the larger side.
    """
    m = indptr.size - 1
    if m ** 3 / 3 < BLOCK_MIN_SAVING:
        return None
    chosen = np.zeros(m, dtype=bool)
    free = np.ones(m, dtype=bool)
    bounds = indptr.tolist()  # Python ints index faster
    for i in np.argsort(np.diff(indptr), kind="stable").tolist():
        if free[i]:
            chosen[i] = True
            free[indices[bounds[i]:bounds[i + 1]]] = False
    I, F = np.flatnonzero(chosen), np.flatnonzero(~chosen)
    if m ** 3 / 3 - F.size ** 3 / 3 - F.size ** 2 * I.size < BLOCK_MIN_SAVING:
        return None
    return _Split(I, F)


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
    S_FF - B diag(1/d) B^T.  c and d are |F|^2 + |I| floats of their
    own; B is a view of the values of the WeightedGram it was factored
    from."""

    c: np.ndarray
    B: np.ndarray
    d: np.ndarray
    I: np.ndarray
    F: np.ndarray


@dataclass
class WeightedGram:
    """A diag(w) A^T, the one form of L that spd_solve takes: built from
    a validated A and w > 0, so not checked.

    values is Q @ w, computed once, when the gram is made, in the layout
    of the operator's Q (see _build_pattern), and diagonal is its
    diagonal, behind default_regularization and the Jacobi
    preconditioner of spd_solve.  Every form is read from values:
    direct(reg) for direct steps, which is dense(reg), the row-major
    matrix, where the rows do not split, and sparse(reg), a CSR matrix,
    for CG steps, and in any layout.  Each first writes diagonal + reg
    onto the diagonal of values, unless reg is the term they already
    hold, and reads the rest as it stands: direct(reg) is views of
    values in the layout its route reads.  So a form of one reg changes
    when a form of another is asked for.  A gram kept with its step
    keeps the matrix that the step factored and checked, for backward
    and jvp to check against.
    """

    op: WeightedOperator
    w: np.ndarray
    values: np.ndarray = field(init=False)
    diagonal: np.ndarray = field(init=False)
    reg: float = field(init=False, default=0.0)  # the term on values' diagonal

    def __post_init__(self):
        pattern = self.op._pattern
        self.values = pattern.Q @ self.w
        self.diagonal = self.values[pattern.diagonal]

    def _shifted(self, reg):
        """values, holding reg on the diagonal."""
        if reg != self.reg:
            self.values[self.op._pattern.diagonal] = self.diagonal + reg
            self.reg = reg
        return self.values

    def sparse(self, reg):
        """A diag(w) A^T + reg*I as a CSR matrix with sorted indices;
        its data are values themselves in the layout of CG steps."""
        pattern = self.op._pattern
        m = pattern.indptr.size - 1
        data = self._shifted(reg)[pattern.entries]
        return scipy.sparse.csr_array((data, pattern.indices, pattern.indptr), shape=(m, m))

    def dense(self, reg):
        """A diag(w) A^T + reg*I as the m-by-m view of values, which
        hold the row-major matrix in the layout of dense steps, the one
        layout this form is read in."""
        m = self.op._pattern.indptr.size - 1
        return self._shifted(reg).reshape(m, m)

    def direct(self, reg):
        """A diag(w) A^T + reg*I for a direct solve: its _Blocks, views
        of values, where the operator splits its rows, and dense(reg)
        otherwise."""
        split = self.op._pattern.split
        if split is None:
            return self.dense(reg)
        values = self._shifted(reg)
        nI, nFF = split.I.size, split.F.size ** 2
        return _Blocks(values[nI:nI + nFF].reshape(split.F.size, split.F.size),
                       values[nI + nFF:].reshape(split.F.size, nI), values[:nI],
                       split.I, split.F)

    def default_regularization(self):
        """The trace-scaled Tikhonov term 1e-10 * trace / m, from the
        diagonal."""
        return AUTO_REG_SCALE * float(self.diagonal.sum()) / self.diagonal.size


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
    S = L + reg*I is read from it by direct(reg), dense or in blocks, up
    to DIRECT_MAX_DIM rows and by sparse(reg) above; on a gram that
    holds reg already that is views of its values, with no arithmetic.
    reg=None applies the trace-scaled default.  factor, a Cholesky
    factor of L + reg*I, dense or a BlockFactor (SpdSolveReport.factor
    of an earlier solve with it), is reused.  The residuals are
    products with S, which comes from L and not from the factor, so the
    factor of another matrix misses and is refined against L.

    With a factor or up to DIRECT_MAX_DIM rows, Cholesky runs first and
    Jacobi-PCG refines an answer that misses; above, PCG runs from zero
    down to ||(L + reg*I) p - b|| <= tol * ||b|| and the Cholesky
    factor is the last resort.  p is accepted on normwise backward
    error,

        ||S p - b|| <= tol * (||b|| + max(diag(S)) * ||p||),

    S = L + reg*I, with max(diag(S)) estimating ||S||, so that a
    right-hand side far below the rounding error of S p does not fail.
    Breakdown is raised when no answer is accepted, and for a b with
    NaN or infinity.
    """
    if not isinstance(L, WeightedGram):
        raise TypeError(f"spd_solve takes L as op.at(w), a WeightedGram, not {type(L).__name__}")
    m = b.shape[0]
    reg = L.default_regularization() if reg is None else float(reg)
    bnorm = _norm(b)
    if bnorm == 0.0:
        return SpdSolveReport(np.zeros(m), 0, 0.0, reg)
    # an infinite target would accept any p, 0 included
    if not math.isfinite(bnorm):
        raise Breakdown(f"right-hand side norm {bnorm} is not finite")
    target = tol * bnorm

    direct = m <= DIRECT_MAX_DIM
    S = L.direct(reg) if direct else L.sparse(reg)
    matvec = S.__matmul__
    # cf, p and res: the Cholesky answer, or None, None and inf
    cf = p = None
    res = math.inf
    if factor is not None or direct:
        cf, p = _cholesky(S, b, factor)
    if cf is not None:
        res = _norm(matvec(p) - b)
        if res <= target:
            return SpdSolveReport(p, 0, res, reg, cf)
    # the normwise backward-error test: res <= target + slack * ||p||
    jacobi = L.diagonal + reg
    slack = tol * float(jacobi.max())
    if cf is not None and res <= target + slack * _norm(p):
        return SpdSolveReport(p, 0, res, reg, cf)
    p, iters, res = _pcg(matvec, b, jacobi, p, target, 10 * m)
    if res <= target + slack * _norm(p):
        return SpdSolveReport(p, iters, res, reg, cf)
    if factor is None and not direct:  # the last resort
        cf, p_direct = _cholesky(S.toarray(), b)
        if cf is not None:
            res_direct = _norm(matvec(p_direct) - b)
            if res_direct <= target + slack * _norm(p_direct):
                return SpdSolveReport(p_direct, iters, res_direct, reg, cf)
    raise Breakdown(f"residual {res:.3e} above target {target:.3e} after factoring and PCG")


def _cholesky(S, b, cf=None):
    """(factor, S^{-1} b) by Cholesky, with the factor cf of S when one
    is given, and then S is not read, or (None, None) when the
    factorization fails or gives a non-finite solution.  S is factored
    dense, or as _Blocks, which give a BlockFactor, through one GEMM and
    a dpotrf of order |F|, and are solved by two GEMVs around a dpotrs.  LAPACK is called directly:
    scipy's cho_factor and cho_solve make the same calls but cost as
    much again in their wrappers at m ~ 50."""
    if cf is None:
        if isinstance(S, _Blocks):
            if not S.d.min() > 0.0:
                return None, None
            c, info = dpotrf(S.FF - (S.B / S.d) @ S.B.T, lower=1, clean=0, overwrite_a=1)
            # d is copied: a solve at another reg rewrites the diagonal
            cf = BlockFactor(c, S.B, S.d.copy(), S.I, S.F)
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
