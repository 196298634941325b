"""Regularized SPD solves, their adjoints, and the weighted operator.

Every dynamics step solves S p = b with S = A W A^T + reg*I, A W A^T
symmetric positive semidefinite.  WeightedOperator holds A, the LP's
own CSR array, and one map Q from w to the values of A diag(w) A^T,
written in the layout that the solve route of its row count reads: the
row-major m-by-m matrix on the dense route, the blocks [diag(S_II) |
S_FF | S_FI] where the rows split, and the CSR data on the pattern of
A A^T plus its diagonal above DIRECT_MAX_DIM, on index arrays that
the operator builds once, read-only, in a CSR template.  WeightedGram,
op.at(w, scale), is the step's whole system S: it computes Q @ w once,
writes its Tikhonov term reg = scale * trace(A diag(w) A^T) / m onto
the diagonal, and keeps its own Cholesky factor once a solve has made
one; its sparse() is a copy of the template with the gram's own data.
It is the one form of S that spd_solve takes, and the one place that
holds the scale and reg a step solved with.
spd_solve is the one solve routine, for the forward steps and for the
backward and tangent solves alike.  It factors S by Cholesky up to
DIRECT_MAX_DIM rows, calling LAPACK dpotrf and dpotrs directly, in one
of two forms.  Dense, the factor is dpotrf's lower factor of S.  In
blocks, it eliminates first a set I of rows of A that share no column,
whose block of S is the diagonal d_I, and the factor is that of the
Schur complement of that block on the other rows F, formed by one
SYRK into the lower triangle that dpotrf reads.  The operator picks
the block form once, in its _pattern, where it saves BLOCK_MIN_SAVING
flops of dpotrf, as on assignment LPs of 150 rows.
Above DIRECT_MAX_DIM rows spd_solve runs Jacobi-preconditioned CG on
the sparse S, from the best multiple of a start vector that the caller
may give (the forward loop gives the previous step's p where that
step's gram holds no factor) or from zero, and factors S densely only
as a last resort.  A gram that holds a factor has it reused by every
later solve, which checks and refines its answer against the gram's
own matrix and ignores the start; a direct solve reads the start only
where it gets no Cholesky answer.  DIRECT_MAX_DIM and the split pick
the method, never the values.  The CG loop, _pcg, does its vector
operations as level-1 BLAS calls (scipy.linalg.blas ddot and daxpy) in
place, as numpy's fixed cost per call outweighs the work on vectors of
a few hundred entries.
"""

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.linalg.blas import daxpy, ddot, dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import Breakdown, DimensionMismatch

# Direct factorization up to this order, CG above it.
DIRECT_MAX_DIM = 512
# Scale factor for the automatic Tikhonov term.
AUTO_REG_SCALE = 1e-10
# Flops of dpotrf that the block factor must save, m^3/3 against
# |F|^3/3 + |F|^2 |I| for the Schur complement (dpotrf of order |F|
# and the SYRK that forms it), to be used.  Below it the block form's
# extra numpy calls cost more than they save: taken at every size, it
# ran 13% slower on 55-row and 8% slower on 60-row LPs.
BLOCK_MIN_SAVING = 2e5


@dataclass(eq=False)
class SpdSolveReport:
    """Solution of S p = b plus solve diagnostics.

    iterations is 0 when the Cholesky factor alone solved the system,
    or when the start of a CG solve met its target, and otherwise the
    number of CG steps taken.  The factor, if any, stays on the
    WeightedGram.
    """

    p: np.ndarray
    iterations: int


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

    def at(self, w, scale=AUTO_REG_SCALE):
        """A diag(w) A^T + reg*I as a WeightedGram, for spd_solve, with
        reg = scale * trace(A diag(w) A^T) / m; w must be positive, and
        scale 0 gives the bare matrix."""
        return WeightedGram(self, w, scale)


class _Split(NamedTuple):
    I: np.ndarray  # rows that share no column, eliminated first
    F: np.ndarray  # the other rows


class _Pattern(NamedTuple):
    # the entries as a CSR matrix of zeros, with read-only index arrays:
    # the template that every WeightedGram.sparse() copies
    csr: scipy.sparse.csr_array
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
    indices = keys % m
    csr = scipy.sparse.csr_array((np.zeros(keys.size), indices,
                                  np.searchsorted(keys, m * np.arange(m + 1))), shape=(m, m))
    csr.indptr.flags.writeable = csr.indices.flags.writeable = False
    split = None if m > DIRECT_MAX_DIM else _build_split(csr.indptr, csr.indices)
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
    return _Pattern(csr, split, Q, at[entry[flat.size:]], entries)


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
    diag(d), S_FI = B and S_FF = FF, views of the gram's values, which
    no factor writes: _factor's SYRK updates a copy of FF, in its lower
    triangle only."""

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


@dataclass(eq=False)
class WeightedGram:
    """S = A diag(w) A^T + reg*I, one step's whole linear system and the
    one form of it that spd_solve takes: built from a validated A and
    w > 0, so not checked.

    reg is fixed when the gram is made: scale times the trace of
    A diag(w) A^T over m.  solver.step_detail solves with scale
    AUTO_REG_SCALE and retries at 100 times that, so the gram tells
    which ran, and backward and jvp differentiate reg through its
    scale; scale 0 gives the bare matrix.  values is Q @ w in the
    layout of the operator's Q (see _build_pattern), with reg added
    onto its diagonal then; nothing writes it afterwards.  Every form of
    S is views of it: direct() for direct steps, the row-major matrix
    or, where the rows split, its _Blocks, and sparse(), a CSR matrix,
    for CG steps and in any layout.  factor is None until a solve gets
    one from dpotrf: then the lower Cholesky factor of S, or, where the
    rows split, of the Schur complement of S_II on the rows F, and every
    later solve with the gram reuses it.  A gram kept with its step
    keeps the matrix and the factor that the step solved with, for
    backward and jvp.
    """

    op: WeightedOperator
    w: np.ndarray
    scale: float = AUTO_REG_SCALE
    reg: float = field(init=False)
    values: np.ndarray = field(init=False)
    factor: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        pattern = self.op._pattern
        self.values = pattern.Q @ self.w
        diagonal = self.values[pattern.diagonal]
        self.reg = self.scale * float(diagonal.sum()) / diagonal.size
        self.values[pattern.diagonal] = diagonal + self.reg

    def sparse(self):
        """S as a CSR matrix with sorted indices: a shallow copy of the
        operator's template, _pattern.csr, whose index arrays every copy
        shares and nobody can write, with its own data, values[entries],
        which are values themselves in the layout of CG steps.  Copying
        skips the checks of scipy's constructor, which cost a CG step
        about 13 us for index arrays that never change."""
        pattern = self.op._pattern
        S = copy.copy(pattern.csr)
        S.data = self.values[pattern.entries]
        return S

    def direct(self):
        """S for a direct solve, as views of values: its _Blocks where the
        operator splits its rows, and otherwise the m-by-m matrix, which
        values hold row-major in that layout."""
        pattern, values = self.op._pattern, self.values
        if pattern.split is None:
            m = pattern.csr.shape[0]
            return values.reshape(m, m)
        I, F = pattern.split
        nFF = F.size ** 2
        return _Blocks(values[I.size:I.size + nFF].reshape(F.size, F.size),
                       values[I.size + nFF:].reshape(F.size, I.size), values[:I.size], I, F)


def _norm(v):
    """||v||_2 as sqrt(ddot(v, v)).  np.linalg.norm of a real vector is
    sqrt(v @ v), and numpy's 1-D @ calls a BLAS ddot too: the two agreed
    bit for bit on 2,000 random vectors of up to 2,000 entries.  At a
    few hundred entries this takes a quarter of norm's time."""
    return math.sqrt(ddot(v, v))


def _pcg(S_matvec, b, diag, x, r, target, max_iters):
    """Jacobi-preconditioned CG from x, whose residual b - S x is r, down
    to absolute residual target; returns (x, iterations, ||S x - b||).
    x and r are the caller's own arrays, and are written in place.

    A negative diagonal entry makes S indefinite, so CG does not start:
    its Jacobi scale, 1/tiny, would overflow the first step.  Only the
    product S @ d and the Jacobi scaling are numpy or scipy calls; every
    other vector operation is a level-1 BLAS call, ddot or an in-place
    daxpy, which on vectors of a few hundred entries takes a fifth to a
    quarter of the time of the numpy call it replaces.  daxpy fuses its
    multiply and add, so the iterates differ from numpy's
    x += alpha * d at rounding level.  f2py writes in place only into a
    contiguous, writable float64 y and returns an updated copy of
    anything else, so its return value is always bound.
    """
    inv_diag = 1.0 / np.maximum(diag, np.finfo(np.float64).tiny)
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


def _scaled_start(S_matvec, b, start):
    """(x, b - S x) for x = alpha * start, the multiple of start nearest
    to S^{-1} b in the S-norm that CG minimises: alpha = (start . b) /
    (start . S start).  So x is never farther from the answer than zero
    is, and it costs one product with S, which gives the residual too.
    x = 0, with residual b, when start is None or start . S start is not
    positive and finite."""
    if start is not None:
        Ss = S_matvec(start)
        sSs = ddot(start, Ss)
        if 0.0 < sSs < math.inf:
            alpha = ddot(start, b) / sSs
            return alpha * start, b - alpha * Ss
    return np.zeros(b.shape[0]), b.copy()


def spd_solve(L, b, tol, start=None):
    """Solve S p = b for S = A diag(w) A^T + reg*I.

    L is the WeightedGram op.at(w, scale), and anything else raises
    TypeError.  S is read from it by direct(), dense or in blocks, up to
    DIRECT_MAX_DIM rows and by sparse() above: views of its values, with
    no arithmetic.  L.factor is reused when L holds one; a direct solve
    that finds none factors S and leaves the factor on L.  The residuals
    are products with S, which comes from the gram's values and not from
    the factor, so a factor that is not S's misses and is refined
    against S.

    With a factor or up to DIRECT_MAX_DIM rows, Cholesky runs first and
    Jacobi-PCG refines an answer that misses, from that answer, so start
    is ignored.  Where there is no Cholesky answer, above DIRECT_MAX_DIM
    rows without a factor and up to it where dpotrf fails or its solve
    is not finite, PCG runs down to ||S p - b|| <= tol * ||b|| from the
    best multiple of start in the S-norm (see _scaled_start), or from
    zero when start is None, and above DIRECT_MAX_DIM the Cholesky
    factor is the last resort; an m-vector start is trusted here, and
    solver.step_detail checks it.  A start near the answer, as the previous step's p is to the next
    one's, leaves PCG fewer iterations, and none when it meets the
    target.  p is accepted on normwise backward error,

        ||S p - b|| <= tol * (||b|| + max(diag(S)) * ||p||),

    with max(diag(S)) estimating ||S||, so that a right-hand side far
    below the rounding error of S p does not fail.  tol has no default:
    the forward loop passes solver.forward_tol of its iterate, and
    backward and jvp pass autodiff._adjoint_tol of the step's gram.
    Breakdown is raised when no answer is accepted, and for a b with
    NaN or infinity.
    """
    if not isinstance(L, WeightedGram):
        raise TypeError(f"spd_solve takes L as op.at(w), a WeightedGram, not {type(L).__name__}")
    m = b.shape[0]
    bnorm = _norm(b)
    if bnorm == 0.0:
        return SpdSolveReport(np.zeros(m), 0)
    # an infinite target would accept any p, 0 included
    if not math.isfinite(bnorm):
        raise Breakdown(f"right-hand side norm {bnorm} is not finite")
    target = tol * bnorm

    direct = m <= DIRECT_MAX_DIM
    S = L.direct() if direct else L.sparse()
    matvec = S.__matmul__
    if direct and L.factor is None:
        L.factor = _factor(S)
    # p, its residual r = b - S p and ||r||: the Cholesky answer, where
    # there is one, and otherwise PCG's start
    p = _chol_solve(S, L.factor, b)
    if p is not None:
        r = b - matvec(p)
        res = _norm(r)
        if res <= target:
            return SpdSolveReport(p, 0)
    # the normwise backward-error test: res <= target + slack * ||p||
    jacobi = L.values[L.op._pattern.diagonal]
    slack = tol * float(jacobi.max())
    if p is None:
        p, r = _scaled_start(matvec, b, start)
    elif res <= target + slack * _norm(p):
        return SpdSolveReport(p, 0)
    p, iters, res = _pcg(matvec, b, jacobi, p, r, target, 10 * m)
    if res <= target + slack * _norm(p):
        return SpdSolveReport(p, iters)
    if L.factor is None and not direct:  # the last resort
        L.factor = _factor(S.toarray())
        p_direct = _chol_solve(S, L.factor, b)
        if p_direct is not None:
            res_direct = _norm(matvec(p_direct) - b)
            if res_direct <= target + slack * _norm(p_direct):
                return SpdSolveReport(p_direct, iters)
    raise Breakdown(f"residual {res:.3e} above target {target:.3e} after factoring and PCG")


def _factor(S):
    """dpotrf's lower Cholesky factor of S, dense, or for _Blocks of the
    Schur complement S_FF - B diag(1/d) B^T, made by one SYRK and a
    dpotrf of order |F|; None where the factorization fails.  LAPACK is
    called directly: scipy's cho_factor and cho_solve make the same
    calls but cost as much again in their wrappers at m ~ 50.

    dsyrk subtracts X X^T, X = B diag(1/sqrt(d)), from a copy of S_FF
    (overwrite_c is off, so the gram's values stay as they are) and
    writes only the lower triangle, the one that dpotrf(lower=1) reads
    and then factors in place: half the arithmetic of forming the whole
    product.  X^T, a Fortran-ordered view, goes in
    with trans=1, so f2py does not copy it.  dsyrk refuses an empty
    array, so an empty F gets its (0, 0) factor from dpotrf directly."""
    if isinstance(S, _Blocks):
        if not S.d.min() > 0.0:
            return None
        C = S.FF
        if S.F.size:
            C = dsyrk(-1.0, (S.B / np.sqrt(S.d)).T, beta=1.0, c=C, trans=1, lower=1)
        c, info = dpotrf(C, lower=1, clean=0, overwrite_a=1)
    else:
        c, info = dpotrf(S, lower=1, clean=0)
    return c if info == 0 else None


def _chol_solve(S, c, b):
    """S^{-1} b from c, the factor of S that _factor gives, or None when
    c is None or the solve fails or is not finite.  S is read only
    where it is _Blocks: two GEMVs with B around a dpotrs of order |F|;
    any other S (dense or sparse) is solved by one dpotrs."""
    if c is None:
        return None
    if isinstance(S, _Blocks):
        t = b[S.I] / S.d
        # dpotrs refuses an empty system, which F is when A A^T is diagonal
        pF, info = dpotrs(c, b[S.F] - S.B @ t, lower=1) if S.F.size else (np.empty(0), 0)
        p = np.empty(b.size)
        p[S.F], p[S.I] = pF, t - (pF @ S.B) / S.d
    else:
        p, info = dpotrs(c, b, lower=1)
    return p if info == 0 and np.isfinite(p).all() else None


def spd_solve_adjoint(L, p, grad_p, tol):
    """Reverse-mode rule for p = S^{-1} b, S = op.at(w, scale) as
    spd_solve takes it.

    Given d(loss)/dp, returns (grad_L, grad_b) where

        grad_b = S^{-1} grad_p        (S symmetric)
        grad_L = -outer(grad_b, p)

    L must be the gram of the forward solve, whose reg it holds.
    """
    p = np.asarray(p, dtype=np.float64)
    grad_p = np.asarray(grad_p, dtype=np.float64)
    if grad_p.shape != p.shape:
        raise DimensionMismatch(f"grad_p has shape {grad_p.shape}, expected {p.shape}")
    report = spd_solve(L, grad_p, tol)
    grad_b = report.p
    grad_L = -np.outer(grad_b, p)
    return grad_L, grad_b
