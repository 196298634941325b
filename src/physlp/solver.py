"""Physarum-dynamics solver for standard-form linear programs.

The solver keeps a strictly positive iterate x and repeatedly re-solves
a weighted least-squares system built from the current point:

    W = diag(x / c),   L = A W A^T,   p = L^{-1} b,   q = W A^T p,
    x  <-  max((1 - h) x + h q,  eps),   eps = CLAMP_FLOOR

For strictly positive costs the iterate is attracted to the feasible
set and then to an optimal vertex; the initial point does not have to
be feasible.  The dynamics, and the analysis of Straszak & Vishnoi
(arXiv 1601.02712), need positive costs, so the update runs on a
working cost c_hat.  An LP with dual potentials pi runs on its reduced
cost c - A^T pi, which has the same optimal set (the objective moves by
the constant pi.b on the feasible set), and zero entries are raised to
gamma = default_gamma(m, n) > 0.  eps and gamma are constants of the
method, not settings.  Nothing else changes: the iterate, the residual,
the tape and the gradients stay in the LP's own coordinates, and the
objective is reported against the LP's own cost.
"""

import math
from dataclasses import dataclass

import numpy as np

# validate stays imported unused: the benchmark's traced run wraps it here
from .core import (A_MAX, SolveResult, SolveStatus, SolverConfig, StandardFormLP,
                   TraceRecord, checked_array, validate)  # noqa: F401
from .errors import Breakdown, LinSolveFailure, NegativeCost, NonFiniteEntry, NonPositiveInit
from .linalg import AUTO_REG_SCALE, WeightedGram, _norm, spd_solve

# Feasibility tolerance of the stop test: CONVERGED needs a residual
# ||A x - b|| at most this, with a stalled objective.
RESIDUAL_TOL = 1e-8

# Clamp floor eps of the update: every iterate entry stays at or above
# it, so the weights x / c stay positive.
CLAMP_FLOOR = 1e-8

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
    """The value gamma that prepare_lp raises zero costs to,
    1 / (2 sqrt(m + n)) for an m-by-n LP."""
    return 0.5 / math.sqrt(m + n)


@dataclass(eq=False)
class PreparedLP:
    """An LP with the working cost that its dynamics run on.

    c is c_hat: the LP's cost, or its reduced cost c - A^T pi when the
    LP carries potentials pi, with each entry that is exactly zero
    raised to gamma = default_gamma(m, n); zero_mask marks those
    entries.  source is the LP as given, which is frozen, so a tape
    that holds it cannot see it change; its A, b and operator are the
    working ones.  tangent maps
    perturbations of c and A to c_hat, and pullback and pullback_A, its
    transpose, map a gradient of c_hat back to c and A.
    """

    source: StandardFormLP
    c: np.ndarray
    zero_mask: np.ndarray

    def tangent(self, dc, dA):
        """The perturbation of c_hat that dc and dA (None for none) give:
        dc - dA^T pi, and nothing where c_hat was raised to gamma, as
        gamma and pi are constants."""
        pi = self.source.potentials
        if dA is not None and pi is not None:
            dc = dc - dA.T @ pi
        return np.where(self.zero_mask, 0.0, dc)

    def pullback(self, gc):
        """The gradient of c that gc, a gradient of c_hat, gives: the
        transpose of tangent in dc."""
        return np.where(self.zero_mask, 0.0, gc)

    def pullback_A(self, gA, gc):
        """The gradient of A that gA gives, gA - outer(pi, gc), where gc
        is the cost gradient that pullback returns."""
        pi = self.source.potentials
        return gA if pi is None else gA - np.outer(pi, gc)


def prepare_lp(lp):
    """The working cost of lp, as a PreparedLP: c, or the reduced cost
    c - A^T pi when lp carries potentials pi, with zero entries raised
    to gamma = default_gamma(m, n).

    The dynamics need a working cost that is nowhere negative, so
    NegativeCost is raised for any negative entry: an LP with a
    negative cost needs potentials that make it nonnegative.  Its
    entries are held to core.A_MAX, as the LP's own are, since backward
    squares them: NonFiniteEntry is raised for one above it, or for a
    NaN or infinite one, which c - A^T pi can reach from finite data.
    A cost without zeros is kept as it stands.  lp was validated when
    it was built, so nothing here validates it again, and no second LP
    or operator is built.
    """
    c = lp.c if lp.potentials is None else lp.c - lp.operator.AT @ lp.potentials
    neg = c < 0.0
    if neg.any():
        raise NegativeCost(f"{int(neg.sum())} entries of the working cost c - A^T potentials "
                           f"are negative; the LP needs potentials that make it nonnegative")
    # the working cost is now nonnegative or NaN, which fails the comparison too
    if not np.all(c <= A_MAX):
        raise NonFiniteEntry(f"the working cost c - A^T potentials has a non-finite entry or "
                             f"one above {A_MAX:.4g}, whose square overflows")
    zero = c == 0.0
    if zero.any():
        c = np.where(zero, default_gamma(lp.m, lp.n), c)
    return PreparedLP(lp, c, zero)


@dataclass(eq=False)
class StepDetail:
    """What one update leaves on the tape: enough for backward and jvp
    to run without re-forming or re-factoring A diag(w) A^T.

    The update is x_new = max((1-h) x_prev + h * w * u, eps) with
    u = A^T p, w = x_prev / c_hat and p the spd_solve answer of S p = b
    at the target step_detail was given, forward_tol of x_prev's
    residual in the forward loop; a CG step's p, at rounding level,
    and its linsolve_iterations also depend on the start it was given,
    the previous step's p there.  gram is the linalg.WeightedGram the
    step solved with, its whole system S = A diag(w) A^T + reg*I: w,
    reg, the values of S in the layout of the step's route (the m-by-m
    matrix, the blocks diag(S_II), S_FF and S_FI where the operator
    splits its rows, or the CSR data above linalg.DIRECT_MAX_DIM rows)
    and the Cholesky factor the solve left on it (None on CG steps
    unless the last resort ran).  backward and jvp hand the gram back
    to spd_solve, which reuses the factor and checks their answers
    against S.  clamp_mask is True where the pre-clamp value stayed
    strictly above eps.  gram.reg is s * sum_j w_j ||a_j||^2 / m, and
    reg_scale is s: linalg.AUTO_REG_SCALE, or 100 times that after the
    retry.  The term moves with w and A, so backward and jvp, which
    solve with it, differentiate it.  Per step this is, on the dense
    route, two m-by-m arrays (the matrix and its factor), five
    n-vectors (w among them) and two m-vectors; where the rows split,
    |I| + 2 |F|^2 + |F| |I| floats in place of the two m-by-m arrays:
    about 83 kB at 30x30 (60x930) and 213 kB at 50x100 (150x5100), by
    tracemalloc.
    """

    x_prev: np.ndarray
    gram: WeightedGram
    p: np.ndarray
    u: np.ndarray
    x_new: np.ndarray
    clamp_mask: np.ndarray
    reg_scale: float
    linsolve_iterations: int


def step_detail(prep, x, cfg, tol, start=None):
    """One dynamics update from the iterate x, with full intermediates;
    the next iterate is its x_new.

    S = A diag(w) A^T + reg*I goes to spd_solve as op.at(w), op the
    LP's operator, at every size, with the default Tikhonov term, and
    u = A^T p.  With q = w * u, the damped update is (1 - h) x + h q,
    and q itself at h = 1, where the two agree up to the sign of a
    zero.  spd_solve factors S up to linalg.DIRECT_MAX_DIM rows and runs
    CG on it, assembled sparse, above.  After a linear-solve breakdown
    the step retries once on op.at(w, 100 * reg), a new gram.  The step
    keeps the gram it solved with.  tol and start are handed to
    spd_solve, to both solves: tol is the relative target, and start
    the vector whose best multiple a CG solve starts from (zero when
    None; a factored solve ignores it).  _iterate, the forward loop and
    the one caller in the package, passes forward_tol of the iterate's
    residual and the previous step's p, so a step is set by x, cfg and
    that p.  Weights x / c that are not finite raise LinSolveFailure
    before any solve; a start that is not None passes
    core.checked_array as an m-vector (DimensionMismatch,
    NonFiniteEntry).
    """
    lp = prep.source
    op = lp.operator
    h = cfg.step_size

    w = x / prep.c
    if not np.isfinite(w).all():
        raise LinSolveFailure("the weights x / c are not finite, so A diag(w) A^T is not either")
    if start is not None:
        start = checked_array(start, (lp.m,), "start")
    gram = op.at(w)
    try:
        report, reg_scale = spd_solve(gram, lp.b, tol, start), AUTO_REG_SCALE
    except Breakdown:
        gram, reg_scale = op.at(w, 100.0 * gram.reg), 100.0 * AUTO_REG_SCALE
        try:
            report = spd_solve(gram, lp.b, tol, start)
        except Breakdown as exc:
            raise LinSolveFailure(f"inner solve failed after a 100x regularization retry: {exc}") from exc
    p = report.p
    u = op.AT @ p
    q = w * u
    pre = q if h == 1.0 else (1.0 - h) * x + h * q
    clamp_mask = pre > CLAMP_FLOOR
    x_new = np.maximum(pre, CLAMP_FLOOR)
    return StepDetail(x, gram, p, u, x_new, clamp_mask, reg_scale, report.iterations)


def initial_state(prep, cfg, x0=None):
    """The starting iterate.

    x0, when given, passes core.checked_array as an n-vector
    (DimensionMismatch, NonFiniteEntry) and must be strictly positive
    (NonPositiveInit); it does not have to be feasible.  Without x0 the
    iterate is drawn componentwise uniform on (0, 1) from a generator
    seeded with cfg.seed.  Entries below CLAMP_FLOOR are raised to it.
    """
    n = prep.source.n
    if x0 is None:
        rng = np.random.default_rng(cfg.seed)
        x0 = rng.uniform(0.0, 1.0, size=n)
    else:
        x0 = checked_array(x0, (n,), "x0")
        if not np.all(x0 > 0.0):
            raise NonPositiveInit("x0 must be strictly positive componentwise")
    return np.maximum(x0, CLAMP_FLOOR)


def forward_tol(cfg, residual, bnorm):
    """Relative solve target of a forward step from an iterate whose
    residual ||A x - b|| is residual, with bnorm = ||b||:
    max(cfg.linsolve_tol, FORCING * min(1, residual / bnorm)).  The cap
    keeps the target below 1, so a step from a far-infeasible start
    still moves; a zero b (whose solve is exact) gets FORCING."""
    ratio = residual / bnorm if residual < bnorm else 1.0
    return max(cfg.linsolve_tol, FORCING * ratio)


def _stalled(trace, tol):
    """Relative objective change over the trace's last STALL_WINDOW steps."""
    if len(trace) < STALL_WINDOW + 1:
        return False
    last = trace[-1].objective
    scale = 1.0 + abs(last)
    return all(abs(last - trace[-1 - j].objective) <= tol * scale
               for j in range(1, STALL_WINDOW + 1))


def _evaluate(prep, x):
    """The objective of x against the LP's own cost, and its residual
    ||A x - b||."""
    lp = prep.source
    return float(lp.c @ x), _norm(lp.operator.A @ x - lp.b)


def _iterate(prep, x, cfg):
    """The forward loop: cfg.max_iters steps from the iterate x,
    yielding (StepDetail, x, objective, residual) after each, where x
    is the StepDetail's x_new itself, so a caller copies it before
    writing; LinSolveFailure propagates.  Each step solves to
    forward_tol of the residual of its input, with bnorm = ||b||, the
    right-hand side of the solves, and starts its CG solve from the
    best multiple of the previous step's p (the first step from zero):
    consecutive systems differ little, and this start cut the CG
    iterations of 100-step runs on 600-node DAGs by 46%.  A step is
    thus set by its input and the previous step's p, and running the
    loop again from the same x, a tape's steps[0].x_prev among them,
    repeats it bit for bit, on the same route."""
    bnorm = float(np.linalg.norm(prep.source.b))
    res = _evaluate(prep, x)[1]
    p = None
    for _ in range(cfg.max_iters):
        det = step_detail(prep, x, cfg, forward_tol(cfg, res, bnorm), p)
        x, p = det.x_new, det.p
        obj, res = _evaluate(prep, x)
        yield det, x, obj, res


def _solve_loop(lp, cfg, x0, record_steps, early_stop=False):
    """Runs _iterate for solve and solve_with_tape, with the trace and
    the status; returns (result, prepared lp, steps), steps the
    StepDetails when record_steps and None otherwise.  Only solve
    passes early_stop, so a tape runs all cfg.max_iters steps.  The
    status is CONVERGED when the stop test (residual at most
    RESIDUAL_TOL and a stalled objective) holds at the last iterate,
    with or without early_stop, and MAX_ITERS otherwise.  A
    LinSolveFailure ends the loop at the last valid iterate."""
    prep = prepare_lp(lp)
    x0 = initial_state(prep, cfg, x0)

    steps = [] if record_steps else None
    trace = []
    x = None
    converged = False
    try:
        for k, (det, x, obj, res) in enumerate(_iterate(prep, x0, cfg), 1):
            if record_steps:
                steps.append(det)
            trace.append(TraceRecord(k, obj, res, det.linsolve_iterations))
            converged = res <= RESIDUAL_TOL and _stalled(trace, RESIDUAL_TOL)
            if converged and early_stop:
                break
        status = SolveStatus.CONVERGED if converged else SolveStatus.MAX_ITERS
    except LinSolveFailure:
        status = SolveStatus.LINSOLVE_FAILURE

    if x is None:  # no step completed
        x = x0
        obj, res = _evaluate(prep, x)
    # x may be the last x_new or x0, which a tape holds, so it is copied
    result = SolveResult(x.copy(), obj, res, trace, status)
    return result, prep, steps


def solve(lp, cfg=None, x0=None, early_stop=True):
    """Run the dynamics for cfg.max_iters updates.

    The stop test holds once the feasibility residual is at most
    RESIDUAL_TOL and the objective has stalled (relative change
    over the last three iterations within the same tolerance); with
    early_stop the run ends there.  The returned SolveResult carries
    the iterate, the objective against the LP's own cost, the
    final residual, one TraceRecord per iteration performed, and a
    status flag: CONVERGED when the stop test holds at the last
    iterate, MAX_ITERS when the budget ran out first, even on a
    feasible iterate that is still moving, and LINSOLVE_FAILURE, with
    the last valid iterate, after a linear-solve breakdown.
    """
    if cfg is None:
        cfg = SolverConfig()
    result, _, _ = _solve_loop(lp, cfg, x0, False, early_stop)
    return result
