"""Physarum-dynamics solver for standard-form linear programs.

The solver keeps a strictly positive iterate x and repeatedly re-solves
a weighted least-squares system built from the current point:

    W = diag(x / c),   L = A W A^T,   p = L^{-1} b,   q = W A^T p,
    x  <-  max((1 - h) x + h q,  eps)

For strictly positive costs the iterate is attracted to the feasible
set and then to an optimal vertex; the initial point does not have to
be feasible.  Two preprocessing transforms extend the update to general
costs: zero costs are raised to a small gamma > 0, and negative-cost
coordinates are flipped through x_i = M - y_i against a box bound M
that dominates the feasible set.  Results are always decoded and
reported in the original coordinates against the original cost vector.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (SolveResult, SolveStatus, SolverConfig, StandardFormLP,
                   TraceRecord, validate)
from .errors import (Breakdown, DimensionMismatch, LinSolveFailure,
                     MissingBound, NonPositiveInit, ZeroCostNeedsGamma)
from .linalg import spd_solve

# Width of the early-stop window: the objective must be stalled across
# this many consecutive iterations (plus a satisfied residual) to stop.
STALL_WINDOW = 3


def default_gamma(m, n):
    """Perturbation for zero costs, 1 / (2 sqrt(m + n)) for an m-by-n LP."""
    return 0.5 / math.sqrt(m + n)


def perturb_cost(c, gamma):
    """Replace zero cost entries by gamma, leaving the rest untouched.

    gamma must be positive when c has zero entries; a zero gamma is
    accepted only for already strictly nonzero costs.
    """
    c = np.asarray(c, dtype=np.float64)
    zero = c == 0.0
    if np.any(zero) and gamma <= 0.0:
        raise ZeroCostNeedsGamma(f"{int(zero.sum())} zero cost entries need gamma > 0, got {gamma}")
    return np.where(zero, gamma, c)


@dataclass
class PreparedLP:
    """LP after flipping negative costs and perturbing zero costs.

    lp holds the transformed problem whose cost is the working vector
    c_hat; flip_mask marks columns that were replaced by y_i = M - x_i,
    zero_mask marks columns whose (post-flip) cost was exactly zero
    before perturbation.  gamma is the perturbation actually applied
    (0.0 when none was needed) and bound is the box bound M used by the
    flip (None when nothing was flipped).  lp shares A and b with the
    LP it was prepared from unless a column was flipped.
    """

    lp: StandardFormLP
    flip_mask: np.ndarray
    zero_mask: np.ndarray
    original_c: np.ndarray
    gamma: float = 0.0
    bound: float | None = None

    def decode(self, y):
        """Map an iterate back to the original coordinates.  The flip
        x = M - y is its own inverse, so encode is the same map."""
        if self.bound is None:
            return np.asarray(y, dtype=np.float64).copy()
        return np.where(self.flip_mask, self.bound - y, y)

    encode = decode

    def restore(self):
        """Reconstruct the original LP from the stored transforms."""
        A = self.lp.A.copy()
        b = self.lp.b.copy()
        c = self.lp.c.copy()
        c[self.zero_mask] = 0.0
        if self.bound is not None:
            flipped = np.flatnonzero(self.flip_mask)
            A[:, flipped] = -A[:, flipped]
            b = b + self.bound * A[:, flipped].sum(axis=1)
            c[flipped] = -c[flipped]
        return StandardFormLP(A, b, c, box_bound=self.bound)


def flip_negative_costs(lp):
    """Substitute x_i = M - y_i on negative-cost coordinates.

    M is taken from lp.box_bound and must dominate the feasible set on
    the flipped coordinates; MissingBound is raised when negative costs
    are present without a bound.  The returned PreparedLP is
    pre-perturbation: its cost is nonnegative but may contain zeros.
    """
    return _prepare(lp, perturb=False)


def prepare_lp(lp, gamma=None):
    """Flip negative costs, then perturb zero costs.

    gamma=None picks default_gamma(m, n) when zero costs are present
    and 0.0 otherwise; an explicit gamma is applied as given.
    """
    return _prepare(lp, gamma)


def _prepare(lp, gamma=None, perturb=True):
    """flip_negative_costs, then with perturb the zero-cost perturbation.
    lp is validated once here and the working LP is built once; it
    shares lp's A and b unless a column is flipped."""
    lp = validate(lp)
    neg = lp.c < 0.0
    A, b, c, bound = lp.A, lp.b, lp.c, lp.box_bound
    if np.any(neg):
        if bound is None:
            raise MissingBound(f"{int(neg.sum())} negative cost entries but lp.box_bound is not set")
        bound = float(bound)
        flipped = np.flatnonzero(neg)
        A = A.copy()
        A[:, flipped] = -A[:, flipped]
        b = b + bound * A[:, flipped].sum(axis=1)
        c = np.where(neg, -c, c)
    zero = c == 0.0
    if perturb:
        if gamma is None:
            gamma = default_gamma(lp.m, lp.n) if zero.any() else 0.0
        c = perturb_cost(c, float(gamma))
    gamma = float(gamma) if perturb and zero.any() else 0.0
    return PreparedLP(StandardFormLP(A, b, c), neg, zero, lp.c.copy(), gamma, bound)


@dataclass
class StepDetail:
    """What one update leaves on the tape: enough to replay it or to run
    the reverse sweep without re-forming or re-factoring A diag(w) A^T.

    The update is x_new = max((1-h) x_prev + h * w * u, eps) with
    u = A^T p, p = (A diag(w) A^T + reg*I)^{-1} b and w = x_prev / c_hat.
    factor is the SpdSolveReport.factor of the step's spd_solve call,
    the Cholesky factor of that matrix in cho_factor form, which
    backward and jvp reuse for their own solves.  Above
    linalg.DIRECT_MAX_DIM rows spd_solve runs CG matrix-free, and the
    step stores no factor (None) unless CG failed and the Cholesky last
    resort ran.  clamp_mask is True where the pre-clamp value stayed
    strictly above eps.  Per step this is at most one m-by-m factor
    plus four n-vectors and one m-vector.
    """

    x_prev: np.ndarray
    factor: tuple | None
    p: np.ndarray
    u: np.ndarray
    x_new: np.ndarray
    clamp_mask: np.ndarray
    reg_used: float
    linsolve_iterations: int


def step_detail(prep, x, cfg, reg_override=None):
    """One dynamics update from the iterate x, with full intermediates;
    the next iterate is its x_new.

    L = A diag(w) A^T goes to spd_solve as prep.lp.operator.at(w) at
    every size; spd_solve factors it up to linalg.DIRECT_MAX_DIM rows
    and runs matrix-free CG above.  reg_override pins the Tikhonov term
    to an exact value (used when replaying a recorded trajectory, which
    then takes the same path); otherwise cfg.linsolve_reg is used, with
    one 100x retry after a linear-solve breakdown.
    """
    op = prep.lp.operator
    h = cfg.step_size
    eps = cfg.clamp_floor

    w = x / prep.lp.c
    gram = op.at(w)
    solve_with = partial(spd_solve, gram, prep.lp.b, cfg.linsolve_tol)
    if reg_override is not None:
        report = solve_with(reg_override)
    else:
        try:
            report = solve_with(cfg.linsolve_reg)
        except Breakdown:
            base = cfg.linsolve_reg if cfg.linsolve_reg else gram.default_regularization()
            try:
                report = solve_with(100.0 * base)
            except Breakdown as exc:
                raise LinSolveFailure(f"inner solve failed after a 100x regularization retry: {exc}") from exc
    p = report.p
    u = op.AT @ p
    pre = (1.0 - h) * x + h * (w * u)
    clamp_mask = pre > eps
    x_new = np.maximum(pre, eps)
    return StepDetail(x, report.factor, p, u, x_new, clamp_mask,
                      report.regularization_used, report.iterations)


def initial_state(prep, cfg, x0=None):
    """The starting iterate in working coordinates.

    x0, when given, is interpreted in the original coordinates and must
    be strictly positive (it does not have to be feasible).  Without
    x0 the iterate is drawn componentwise uniform on (0, 1) from a
    generator seeded with cfg.seed.
    """
    n = prep.lp.n
    if x0 is None:
        rng = np.random.default_rng(cfg.seed)
        y0 = rng.uniform(0.0, 1.0, size=n)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n,):
            raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({n},)")
        if not np.all(x0 > 0.0):
            raise NonPositiveInit("x0 must be strictly positive componentwise")
        y0 = prep.encode(x0)
    return np.maximum(y0, cfg.clamp_floor)


def _stalled(objectives, tol):
    """Relative objective change over the last STALL_WINDOW iterations."""
    if len(objectives) < STALL_WINDOW + 1:
        return False
    last = objectives[-1]
    scale = 1.0 + abs(last)
    return all(abs(last - objectives[-1 - j]) <= tol * scale
               for j in range(1, STALL_WINDOW + 1))


def _evaluate(prep, b, y):
    """Decoded iterate, its objective and its residual ||A x - b|| against
    the original data.  The residual goes through prep.lp.operator,
    whose matrix differs from A only by the sign of the flipped columns."""
    x = prep.decode(y)
    signed = np.where(prep.flip_mask, -x, x)
    return x, float(prep.original_c @ x), float(np.linalg.norm(prep.lp.operator.A @ signed - b))


def _solve_loop(lp, cfg, x0, early_stop, record_steps):
    """Shared forward loop; returns (result, prepared lp, y0, steps)."""
    prep = prepare_lp(lp, cfg.gamma)
    y0 = initial_state(prep, cfg, x0)
    y = y0

    steps = [] if record_steps else None
    trace = []
    objectives = []
    status = SolveStatus.MAX_ITERS
    for k in range(1, cfg.max_iters + 1):
        try:
            det = step_detail(prep, y, cfg)
        except LinSolveFailure:
            status = SolveStatus.LINSOLVE_FAILURE
            break
        if record_steps:
            steps.append(det)
        y = det.x_new
        _, obj, res = _evaluate(prep, lp.b, y)
        trace.append(TraceRecord(k, obj, res, det.linsolve_iterations))
        objectives.append(obj)
        if early_stop and res <= cfg.residual_tol and _stalled(objectives, cfg.residual_tol):
            break

    x_dec, obj, res = _evaluate(prep, lp.b, y)
    if status is not SolveStatus.LINSOLVE_FAILURE:
        status = SolveStatus.CONVERGED if res <= cfg.residual_tol else SolveStatus.MAX_ITERS
    result = SolveResult(x_dec, obj, res, trace, status)
    return result, prep, y0, steps


def solve(lp, cfg=None, x0=None, early_stop=True):
    """Run the dynamics for cfg.max_iters updates.

    Stops early once the feasibility residual is at most
    cfg.residual_tol and the objective has stalled (relative change
    over the last three iterations within the same tolerance).  The
    returned SolveResult carries the decoded iterate, the objective
    against the original cost, the final residual, one TraceRecord per
    iteration performed, and a status flag; a linear-solve breakdown
    surfaces as status LINSOLVE_FAILURE with the last valid iterate.
    """
    if cfg is None:
        cfg = SolverConfig()
    result, _, _, _ = _solve_loop(lp, cfg, x0, early_stop, record_steps=False)
    return result
