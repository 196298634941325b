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
from dataclasses import dataclass, field

import numpy as np

from .core import (SolveResult, SolveStatus, SolverConfig, StandardFormLP,
                   TraceRecord, validate)
from .errors import (Breakdown, DimensionMismatch, LinSolveFailure,
                     MissingBound, NonPositiveInit, ZeroCostNeedsGamma)
from .linalg import default_regularization, spd_solve

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
    flip (None when nothing was flipped).
    """

    lp: StandardFormLP
    flip_mask: np.ndarray
    zero_mask: np.ndarray
    original_c: np.ndarray
    gamma: float = 0.0
    bound: float | None = None

    def decode(self, y):
        """Map an iterate back to the original coordinates."""
        if self.bound is None:
            return np.asarray(y, dtype=np.float64).copy()
        return np.where(self.flip_mask, self.bound - y, y)

    def encode(self, x):
        """Map a point in original coordinates into the working ones."""
        if self.bound is None:
            return np.asarray(x, dtype=np.float64).copy()
        return np.where(self.flip_mask, self.bound - x, x)

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
    lp = validate(lp)
    neg = lp.c < 0.0
    if not np.any(neg):
        prep_lp = StandardFormLP(lp.A.copy(), lp.b.copy(), lp.c.copy())
        return PreparedLP(prep_lp, neg, lp.c == 0.0, lp.c.copy(),
                          bound=lp.box_bound)
    if lp.box_bound is None:
        raise MissingBound(f"{int(neg.sum())} negative cost entries but lp.box_bound is not set")
    M = float(lp.box_bound)
    flipped = np.flatnonzero(neg)
    A = lp.A.copy()
    A[:, flipped] = -A[:, flipped]
    b = lp.b + M * A[:, flipped].sum(axis=1)
    c = lp.c.copy()
    c[flipped] = -c[flipped]
    prep_lp = StandardFormLP(A, b, c)
    return PreparedLP(prep_lp, neg, c == 0.0, lp.c.copy(), bound=M)


def prepare_lp(lp, gamma=None):
    """Flip negative costs, then perturb zero costs.

    gamma=None picks default_gamma(m, n) when zero costs are present
    and 0.0 otherwise; an explicit gamma is applied as given.
    """
    prep = flip_negative_costs(lp)
    has_zero = bool(np.any(prep.zero_mask))
    if gamma is None:
        gamma = default_gamma(lp.m, lp.n) if has_zero else 0.0
    gamma = float(gamma)
    c_hat = perturb_cost(prep.lp.c, gamma)
    prep.lp = StandardFormLP(prep.lp.A, prep.lp.b, c_hat)
    prep.gamma = gamma if has_zero else 0.0
    return prep


@dataclass
class PhysarumState:
    """Iterate in the working (flipped, perturbed) coordinates."""

    x: np.ndarray
    iteration: int = 0
    linsolve_iterations: int = 0


@dataclass
class StepDetail:
    """What one update leaves on the tape: enough to replay it or to run
    the reverse sweep without re-forming or re-factoring A diag(w) A^T.

    The update is x_new = max((1-h) x_prev + h * w * u, eps) with
    u = A^T p, p = (A diag(w) A^T + reg*I)^{-1} b and w = x_prev / c_hat.
    factor is the Cholesky factor of that matrix in cho_factor form,
    which backward and jvp reuse for their own solves (None when the
    step was solved by CG alone).  clamp_mask is True where the
    pre-clamp value stayed strictly above eps.  Per step this is one
    m-by-m factor plus four n-vectors and one m-vector.
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
    """One dynamics update with full intermediates.

    reg_override pins the Tikhonov term to an exact value (used when
    replaying a recorded trajectory); otherwise cfg.linsolve_reg is
    used, with one 100x retry after a linear-solve breakdown.
    """
    A = prep.lp.A
    b = prep.lp.b
    c_hat = prep.lp.c
    h = cfg.step_size
    eps = cfg.clamp_floor

    w = x / c_hat
    L = (A * w) @ A.T
    if reg_override is not None:
        report = spd_solve(L, b, tol=cfg.linsolve_tol, reg=reg_override)
    else:
        try:
            report = spd_solve(L, b, tol=cfg.linsolve_tol, reg=cfg.linsolve_reg)
        except Breakdown:
            base = cfg.linsolve_reg if cfg.linsolve_reg else default_regularization(L)
            try:
                report = spd_solve(L, b, tol=cfg.linsolve_tol, reg=100.0 * base)
            except Breakdown as exc:
                raise LinSolveFailure(f"inner solve failed after a 100x regularization retry: {exc}") from exc
    p = report.p
    u = A.T @ p
    pre = (1.0 - h) * x + h * (w * u)
    clamp_mask = pre > eps
    x_new = np.maximum(pre, eps)
    return StepDetail(x, report.factor, p, u, x_new, clamp_mask,
                      report.regularization_used, report.iterations)


def physarum_step(prep, state, cfg):
    """Advance the dynamics by one update."""
    det = step_detail(prep, state.x, cfg)
    return PhysarumState(det.x_new, state.iteration + 1, det.linsolve_iterations)


def initial_state(prep, cfg, x0=None):
    """Build the starting iterate in working coordinates.

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
    y0 = np.maximum(y0, cfg.clamp_floor)
    return PhysarumState(y0, 0)


def _stalled(objectives, tol):
    """Relative objective change over the last STALL_WINDOW iterations."""
    if len(objectives) < STALL_WINDOW + 1:
        return False
    last = objectives[-1]
    scale = 1.0 + abs(last)
    return all(abs(last - objectives[-1 - j]) <= tol * scale
               for j in range(1, STALL_WINDOW + 1))


def _solve_loop(lp, cfg, x0, early_stop, record_steps):
    """Shared forward loop; returns (result, prepared lp, y0, steps)."""
    lp = validate(lp)
    prep = prepare_lp(lp, cfg.gamma)
    state = initial_state(prep, cfg, x0)
    y0 = state.x.copy()

    steps = [] if record_steps else None
    trace = []
    objectives = []
    status = SolveStatus.MAX_ITERS
    for _ in range(cfg.max_iters):
        try:
            det = step_detail(prep, state.x, cfg)
        except LinSolveFailure:
            status = SolveStatus.LINSOLVE_FAILURE
            break
        if record_steps:
            steps.append(det)
        state = PhysarumState(det.x_new, state.iteration + 1, det.linsolve_iterations)
        x_dec = prep.decode(state.x)
        obj = float(prep.original_c @ x_dec)
        res = float(np.linalg.norm(lp.A @ x_dec - lp.b))
        trace.append(TraceRecord(state.iteration, obj, res, det.linsolve_iterations))
        objectives.append(obj)
        if early_stop and res <= cfg.residual_tol and _stalled(objectives, cfg.residual_tol):
            break

    x_dec = prep.decode(state.x)
    obj = float(prep.original_c @ x_dec)
    res = float(np.linalg.norm(lp.A @ x_dec - lp.b))
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
