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

import numpy as np

# validate stays imported unused: the benchmark's traced run wraps it here
from .core import (SolveResult, SolveStatus, SolverConfig, StandardFormLP,
                   TraceRecord, validate)  # noqa: F401
from .errors import (Breakdown, DimensionMismatch, LinSolveFailure, MissingBound,
                     NonFiniteEntry, NonPositiveInit, ZeroCostNeedsGamma)
from .linalg import AUTO_REG_SCALE, WeightedOperator, _norm, spd_solve

# Width of the early-stop window: the objective must be stalled across
# this many consecutive iterations (plus a satisfied residual) to stop.
STALL_WINDOW = 3

# Forcing term of the forward CG solves (Eisenstat & Walker, SIAM J.
# Sci. Comput. 1996, applied to the IRLS view of the dynamics).  A step
# of size h whose solve leaves the residual r = S p - b gives the next
# iterate the infeasibility
#     A x+ - b = (1 - h)(A x - b) + h (r - reg p) + (clamp),
# so r passes into it as it stands.  Solving to a relative target of
# FORCING * ||A x - b|| / ||b|| adds at most h * FORCING * ||A x - b||:
# the residual still falls by about (1 - h + h * FORCING) per step,
# down to the clamp floor, which holds ||A x - b|| near 1e-6 anyway.
# A tighter solve buys accuracy the next step discards.  A direct
# step's Cholesky answer meets any such target, so only CG steps change.
FORCING = 0.03


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

    The flip is the affine change of variables x = shift + sign * y
    from working to original coordinates: sign is -1 and shift is M on
    the columns whose cost is negative (flip_mask), 1 and 0 elsewhere.
    It maps the data to A sign, b - A shift and sign c.  zero_mask marks
    the columns whose cost was then exactly zero, which the perturbation
    raised to gamma (0.0 when none was needed).  source is the LP as
    given, which is frozen, so a tape that holds it cannot see it
    change.  The working problem is op, the WeightedOperator of A sign,
    with b and the cost c_hat as c.  Unless a column flips, op is the
    LP's own operator and b is its b, so an LP keeps one operator
    across its solves; a flip builds a new op from the dense A sign.
    The methods are the maps across the transform: decode and encode
    for iterates, tangent and pullback for perturbations and gradients
    of the data.
    """

    source: StandardFormLP
    op: WeightedOperator
    b: np.ndarray
    c: np.ndarray
    flip_mask: np.ndarray
    zero_mask: np.ndarray
    sign: np.ndarray
    shift: np.ndarray
    gamma: float = 0.0

    def decode(self, y):
        """Map an iterate back to the original coordinates.  shift is
        nonzero only where sign is -1, so the map is its own inverse
        and encode is the same map."""
        return self.shift + self.sign * y

    encode = decode

    def tangent(self, dc, dA, db):
        """Map a perturbation (dc, dA, db) of the original data to the
        working data; dA may be None, for no perturbation of A, and maps
        to None.  gamma and M are constants, so perturbed columns get no
        cost tangent."""
        dc = np.where(self.zero_mask, 0.0, self.sign * dc)
        if dA is None or not self.flip_mask.any():
            return dc, dA, db
        return dc, dA * self.sign, db - dA @ self.shift

    def pullback(self, gc, gA, gb):
        """Map gradients with respect to the working data back to the
        original data: the transpose of tangent."""
        gc = self.sign * np.where(self.zero_mask, 0.0, gc)
        if not self.flip_mask.any():
            return gc, gA, gb
        return gc, gA * self.sign - np.outer(gb, self.shift), gb


def prepare_lp(lp, gamma=None):
    """Flip negative costs, then perturb zero costs.

    Negative-cost coordinates are substituted x_i = M - y_i, with M =
    lp.box_bound, which must dominate the feasible set on them;
    MissingBound is raised when negative costs are present without a
    bound.  gamma=None picks default_gamma(m, n) when zero costs are
    present and 0.0 otherwise; an explicit gamma is applied as given.
    lp was validated when it was built, so nothing here validates it
    again, and no second LP is built: the working problem is
    lp.operator, or the operator of A sign when a column flips, with
    the working b and c.
    """
    neg = lp.c < 0.0
    sign = np.where(neg, -1.0, 1.0)
    shift = np.zeros(lp.n)
    b, c = lp.b, sign * lp.c
    if neg.any():
        if lp.box_bound is None:
            raise MissingBound(f"{int(neg.sum())} negative cost entries but lp.box_bound is not set")
        shift[neg] = lp.box_bound
        op, b = WeightedOperator(lp.A * sign), b - lp.A @ shift
    else:
        op = lp.operator
    zero = c == 0.0
    if gamma is None:
        gamma = default_gamma(lp.m, lp.n) if zero.any() else 0.0
    c = perturb_cost(c, float(gamma))
    gamma = float(gamma) if zero.any() else 0.0
    return PreparedLP(lp, op, b, c, neg, zero, sign, shift, gamma)


@dataclass
class StepDetail:
    """What one update leaves on the tape: enough to replay it or to run
    the reverse sweep without re-forming or re-factoring A diag(w) A^T.

    The update is x_new = max((1-h) x_prev + h * w * u, eps) with
    u = A^T p, w = x_prev / c_hat and p the spd_solve answer of
    (A diag(w) A^T + reg*I) p = b at tolerance tol_used.
    factor is the SpdSolveReport.factor of the step's spd_solve call,
    the Cholesky factor of that matrix, which backward and jvp hand back
    to spd_solve for their own solves: LAPACK dpotrf's lower factor
    (c, True), the form scipy.linalg.cho_solve takes, or, where the
    operator splits its rows, a linalg.BlockFactor, which holds the
    factor of a Schur complement of order |F|, the |F|-by-|I| block and
    the diagonal block instead of m^2 floats.  Above
    linalg.DIRECT_MAX_DIM rows spd_solve runs CG on the matrix
    assembled sparse, and the step stores no factor (None) unless CG
    failed and the Cholesky last resort ran.  clamp_mask is True where
    the pre-clamp value stayed strictly above eps.  reg_used and
    tol_used are the Tikhonov term and the solve tolerance the step ran
    with.  reg_used is s * sum_j w_j ||a_j||^2 / m, and reg_scale is s:
    linalg.AUTO_REG_SCALE, or 100 times that after the retry.  The term
    moves with w and A, so backward and jvp, which solve with it,
    differentiate it.  Per step this is at most one m-by-m factor plus
    four n-vectors and one m-vector.
    """

    x_prev: np.ndarray
    factor: tuple | None
    p: np.ndarray
    u: np.ndarray
    x_new: np.ndarray
    clamp_mask: np.ndarray
    reg_used: float
    reg_scale: float
    tol_used: float
    linsolve_iterations: int


def step_detail(prep, x, cfg, tol=None):
    """One dynamics update from the iterate x, with full intermediates;
    the next iterate is its x_new.

    L = A diag(w) A^T goes to spd_solve as prep.op.at(w) at
    every size; spd_solve factors it up to linalg.DIRECT_MAX_DIM rows
    and runs CG on it, assembled sparse, above, with spd_solve's default
    Tikhonov term and one retry at 100 times it after a linear-solve
    breakdown.  tol is the relative target handed to spd_solve,
    cfg.linsolve_tol when None; _iterate, the forward loop and the one
    caller in the package, passes forward_tol of the iterate's residual,
    so the step is set by x and cfg alone.  Weights x / c that are not
    finite raise LinSolveFailure before any solve.
    """
    op = prep.op
    h = cfg.step_size
    eps = cfg.clamp_floor

    w = x / prep.c
    if not np.isfinite(w).all():
        raise LinSolveFailure("the weights x / c are not finite, so A diag(w) A^T is not either")
    gram = op.at(w)
    tol = cfg.linsolve_tol if tol is None else tol
    try:
        report, reg_scale = spd_solve(gram, prep.b, tol), AUTO_REG_SCALE
    except Breakdown:
        reg_scale = 100.0 * AUTO_REG_SCALE
        try:
            report = spd_solve(gram, prep.b, tol, 100.0 * gram.default_regularization())
        except Breakdown as exc:
            raise LinSolveFailure(f"inner solve failed after a 100x regularization retry: {exc}") from exc
    p = report.p
    u = op.AT @ p
    pre = (1.0 - h) * x + h * (w * u)
    clamp_mask = pre > eps
    x_new = np.maximum(pre, eps)
    return StepDetail(x, report.factor, p, u, x_new, clamp_mask,
                      report.regularization_used, reg_scale, tol, report.iterations)


def initial_state(prep, cfg, x0=None):
    """The starting iterate in working coordinates.

    x0, when given, is interpreted in the original coordinates and must
    be finite (NonFiniteEntry) and strictly positive (NonPositiveInit);
    it does not have to be feasible.  Without x0 the iterate is drawn
    componentwise uniform on (0, 1) from a generator seeded with
    cfg.seed.
    """
    n = prep.source.n
    if x0 is None:
        rng = np.random.default_rng(cfg.seed)
        y0 = rng.uniform(0.0, 1.0, size=n)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n,):
            raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({n},)")
        if not np.isfinite(x0).all():
            raise NonFiniteEntry("x0 contains a non-finite entry")
        if not np.all(x0 > 0.0):
            raise NonPositiveInit("x0 must be strictly positive componentwise")
        y0 = prep.encode(x0)
    return np.maximum(y0, cfg.clamp_floor)


def forward_tol(cfg, residual, bnorm):
    """Relative solve target of a forward step from an iterate whose
    residual ||A x - b|| is residual, with bnorm = ||b||:
    max(cfg.linsolve_tol, FORCING * min(1, residual / bnorm)).  The cap
    keeps the target below 1, so a step from a far-infeasible start
    still moves; a zero b (whose solve is exact) gets FORCING."""
    ratio = residual / bnorm if residual < bnorm else 1.0
    return max(cfg.linsolve_tol, FORCING * ratio)


def _stalled(objectives, tol):
    """Relative objective change over the last STALL_WINDOW iterations."""
    if len(objectives) < STALL_WINDOW + 1:
        return False
    last = objectives[-1]
    scale = 1.0 + abs(last)
    return all(abs(last - objectives[-1 - j]) <= tol * scale
               for j in range(1, STALL_WINDOW + 1))


def _evaluate(prep, y):
    """Decoded iterate, its objective against the original cost and its
    residual ||A x - b||, taken in working coordinates: with
    x = shift + sign y, (A sign) y - (b - A shift) = A x - b."""
    x = prep.decode(y)
    residual = _norm(prep.op.A @ y - prep.b)
    return x, float(prep.source.c @ x), residual


def _iterate(prep, y, cfg):
    """The forward loop: cfg.max_iters steps from the working iterate
    y, yielding (StepDetail, decoded x, objective, residual) after each;
    LinSolveFailure propagates.  Each step solves to forward_tol of the
    residual of its input, with bnorm the working ||b||, the right-hand
    side of the solves; a step is thus set by its input alone, and
    running the loop again from the same y repeats it bit for bit, which
    is how UnrolledTape.replay recomputes a tape."""
    bnorm = float(np.linalg.norm(prep.b))
    res = _evaluate(prep, y)[2]
    for _ in range(cfg.max_iters):
        det = step_detail(prep, y, cfg, tol=forward_tol(cfg, res, bnorm))
        y = det.x_new
        x, obj, res = _evaluate(prep, y)
        yield det, x, obj, res


def _solve_loop(lp, cfg, x0, early_stop, record_steps):
    """Runs _iterate for solve and solve_with_tape, with the trace, the
    early stop and the status; returns (result, prepared lp, y0, steps).
    The status is CONVERGED when the stop test (residual at most
    cfg.residual_tol and a stalled objective) holds at the last
    iterate, with or without early_stop, and MAX_ITERS otherwise.  A
    LinSolveFailure ends the loop at the last valid iterate."""
    prep = prepare_lp(lp, cfg.gamma)
    y0 = initial_state(prep, cfg, x0)

    steps = [] if record_steps else None
    trace = []
    objectives = []
    x = None
    converged = False
    try:
        for k, (det, x, obj, res) in enumerate(_iterate(prep, y0, cfg), 1):
            if record_steps:
                steps.append(det)
            trace.append(TraceRecord(k, obj, res, det.linsolve_iterations))
            objectives.append(obj)
            converged = res <= cfg.residual_tol and _stalled(objectives, cfg.residual_tol)
            if converged and early_stop:
                break
        status = SolveStatus.CONVERGED if converged else SolveStatus.MAX_ITERS
    except LinSolveFailure:
        status = SolveStatus.LINSOLVE_FAILURE

    if x is None:  # no step completed
        x, obj, res = _evaluate(prep, y0)
    result = SolveResult(x, obj, res, trace, status)
    return result, prep, y0, steps


def solve(lp, cfg=None, x0=None, early_stop=True):
    """Run the dynamics for cfg.max_iters updates.

    The stop test holds once the feasibility residual is at most
    cfg.residual_tol and the objective has stalled (relative change
    over the last three iterations within the same tolerance); with
    early_stop the run ends there.  The returned SolveResult carries
    the decoded iterate, the objective against the original cost, the
    final residual, one TraceRecord per iteration performed, and a
    status flag: CONVERGED when the stop test holds at the last
    iterate, MAX_ITERS when the budget ran out first, even on a
    feasible iterate that is still moving, and LINSOLVE_FAILURE, with
    the last valid iterate, after a linear-solve breakdown.
    """
    if cfg is None:
        cfg = SolverConfig()
    result, _, _, _ = _solve_loop(lp, cfg, x0, early_stop, record_steps=False)
    return result
