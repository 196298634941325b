"""Seeded workloads, the op each one times, and the oracle checks.

Every instance is derived from np.random.SeedSequence(seed): the same
seed gives the same instance set, another seed gives unseen data.  The
library only ever receives the generated LPs.  A workload's pool lists
its instances in op order; op i runs on pool[i % len(pool)].

The library is called through module attributes (solver.solve,
autodiff.solve_with_tape, ...) so that a traced run can wrap them.
"""

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from physlp import SolverConfig, SolveStatus, autodiff, oracles, problems, solver
from physlp.errors import Breakdown, LinSolveFailure

# Exceptions an op may raise that count as a failed op.  Anything else
# is a defect in the benchmark or the library and aborts the run.
OP_FAILURES = (Breakdown, LinSolveFailure)

# Per-op feasibility gate for matchings.  At these budgets residuals are
# 1e-6..2e-4 (50 iterations leave a few 30x30 draws near 2e-4); above
# 1e-2 the iterate is not near the feasible set at all.
MATCH_RESIDUAL_GATE = 1e-2
# Criterion 8's band for paths.  At 100 iterations a 600-node DAG misses
# it on about one instance in six (gaps up to 5e-3 in a 24-instance
# survey, 4e-6 typical): ops that miss it are counted and reported, and
# only a gap above PATH_GAP_GATE counts as a wrong answer.
PATH_BAND = 1e-3
PATH_GAP_GATE = 5e-2
# Relative dot-product error above which gradients count as wrong.  The
# adjoint agrees with jvp to 1e-12..1e-4 on these instances; a missing
# or wrong adjoint term gives errors of order one.
DOT_GATE = 1e-3
# Number of gradient instances the dot-product test runs on after the
# timed loop (30x30 only: jvp on 50x100 costs seconds per call).
DOT_INSTANCES = 6
# linsolve_tol of the one retry a grad op makes when backward raises
# Breakdown at the default 1e-10.  The adjoint solves of late, ill-
# conditioned steps reach relative residuals of 1e-8..1e-7; every
# breakdown in a 97-case survey passed at 1e-7.
RETRY_TOL = 1e-6
# Number of 30x30 gradient instances on which a traced run pulls back
# g = ones.  For an assignment LP sum(x) is fixed, so ones is the
# degenerate seed: its adjoint right-hand sides nearly vanish, and
# backward raises Breakdown on about one instance in seven (13 of 96 in
# a survey), where a random g broke down on none of the same 96.
ONES_PROBE_INSTANCES = 16


@dataclass
class Instance:
    """One op's input: matching cost matrix C or a DAG, its oracle answer
    (optimal LP vector for matchings, shortest length for paths), the
    solver seed and the iteration budget."""

    data: object
    answer: object
    solver_seed: int
    max_iters: int
    grad_seed: int | None = None

    @property
    def gradient(self):
        """Whether the op pulls a loss gradient back through the solve."""
        return self.grad_seed is not None

    @property
    def is_path(self):
        return isinstance(self.data, problems.Graph)

    @property
    def size(self):
        """The cost matrix shape, or (node count,) for a DAG."""
        return (self.data.num_nodes,) if self.is_path else self.data.shape

    def build(self):
        if self.is_path:
            return problems.build_shortest_path_lp(self.data, 0, self.data.num_nodes - 1)
        return problems.build_matching_lp(problems.MatchingInstance(self.data))

    def config(self):
        return SolverConfig(max_iters=self.max_iters, seed=self.solver_seed)

    def loss_grad(self, lp):
        """The op's d(loss)/dx: a standard normal vector, the gradient of
        a generic loss.  None for ops without a backward pass."""
        if not self.gradient:
            return None
        return np.random.default_rng(self.grad_seed).standard_normal(lp.n)


@dataclass
class Outcome:
    """What one op produced, already checked.

    failed: the op raised a linear-solve failure, reported
    LINSOLVE_FAILURE, or gave non-finite output.  error: distance to
    the oracle answer (None when failed).  wrong: a non-failed op whose
    answer misses its gate, with the reason.  retried: backward broke
    down and was run again at RETRY_TOL."""

    failed: bool
    error: float | None = None
    wrong: str | None = None
    retried: bool = False


def matching_instance(rng, n, m, max_iters, gradient=False):
    C = rng.uniform(size=(n, m))
    solver_seed = int(rng.integers(2 ** 63))
    grad_seed = int(rng.integers(2 ** 63)) if gradient else None
    x_star = problems.assignment_to_vector(oracles.hungarian(C).map, n, m)
    return Instance(C, x_star, solver_seed, max_iters, grad_seed)


def random_dag(rng, nodes, out_degree):
    """Arcs i -> j > i with out-degree min(out_degree, nodes - 1 - i);
    every node but the last has an out-arc, so the last is reachable
    from node 0."""
    arcs = []
    for i in range(nodes - 1):
        heads = i + 1 + rng.choice(nodes - 1 - i, size=min(out_degree, nodes - 1 - i),
                                   replace=False)
        arcs += [(i, int(j), float(w))
                 for j, w in zip(heads, rng.uniform(0.01, 1.0, size=heads.size))]
    return problems.Graph(nodes, arcs)


def path_instance(rng, nodes, max_iters):
    graph = random_dag(rng, nodes, 3)
    solver_seed = int(rng.integers(2 ** 63))
    _, length = oracles.dijkstra(graph, 0, nodes - 1)
    return Instance(graph, length, solver_seed, max_iters)


def _rngs(seed, count):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def match_small(seed, tiny):
    n, m, pool = (2, 4, 4) if tiny else (5, 50, 1024)
    return [matching_instance(r, n, m, 100) for r in _rngs(seed, pool)]


def match_large(seed, tiny):
    n, m, pool = (3, 6, 4) if tiny else (50, 100, 64)
    return [matching_instance(r, n, m, 50) for r in _rngs(seed, pool)]


# Every GRAD_LARGE_EVERY-th grad op is a large draw.
GRAD_LARGE_EVERY = 8


def grad(seed, tiny):
    small, large, pool = ((3, 3), (3, 6), 8) if tiny else ((30, 30), (50, 100), 128)
    out = []
    for i, r in enumerate(_rngs(seed, pool)):
        n, m = large if i % GRAD_LARGE_EVERY == GRAD_LARGE_EVERY - 1 else small
        out.append(matching_instance(r, n, m, 50, gradient=True))
    return out


def path_large(seed, tiny):
    nodes, pool = (10, 4) if tiny else (600, 16)
    return [path_instance(r, nodes, 100) for r in _rngs(seed, pool)]


@dataclass(frozen=True)
class Workload:
    """A named pool generator.

    error_gate bounds the mean oracle error over a run's non-failed ops;
    above it the run's answers count as wrong.  A timed loop stops only
    after a whole batch of ops, so that every run has the pool's mix of
    instance sizes."""

    name: str
    op: str
    why: str
    make: object
    error_gate: float
    batch: int = 1


WORKLOADS = {w.name: w for w in [
    Workload("match-small", "solve, 5x50 assignment (LP 55x300), 100 iterations",
             "criterion 1's size; a step is fixed-cost bound (dispatch, SPD checks, "
             "55x55 Cholesky) and only early stopping can cut its time", match_small,
             # criterion 1 asks for a mean of at most 0.12 over 100 trials;
             # a run's 100-200 distinct instances gave means of 0.087-0.114
             0.2),
    Workload("match-large", "solve, 50x100 assignment (LP 150x5100), 50 iterations",
             "dense A W A^T assembly dominates a ~1% dense matrix, so sparse assembly "
             "shows here in time and memory", match_large,
             0.4),  # run means 0.22-0.31 measured
    Workload("grad", "solve_with_tape + backward(g), g standard normal, 50 iterations, "
             "30x30 with every 8th draw 50x100",
             "backward dominates and the tape has a fixed length, so this exercises the "
             "adjoint (rank-1 updates, factor reuse, lean tape) and not early stopping", grad,
             0.4, batch=GRAD_LARGE_EVERY),  # run means 0.12-0.24 measured
    Workload("path-large", "solve, 600-node DAG of out-degree 3 (LP 599x1794), "
             "100 iterations",
             "m > 512 puts every step on the CG branch with dense matvecs, on the "
             "incidence rather than the assignment structure", path_large,
             1e-2),  # run means 4e-6..1.2e-3 measured
]}


def execute(inst, lp, g):
    """Run one op; returns (result, gradients, retried), what the checks
    need.  This is the timed part.  A grad op whose backward breaks down
    does what a caller would: it runs backward once more on the same
    tape at the looser RETRY_TOL."""
    cfg = inst.config()
    if not inst.gradient:
        return solver.solve(lp, cfg), None, False
    result, tape = autodiff.solve_with_tape(lp, cfg)
    try:
        return result, autodiff.backward(tape, g), False
    except Breakdown:
        loose = dataclasses.replace(tape.cfg, linsolve_tol=RETRY_TOL)
        return result, autodiff.backward(dataclasses.replace(tape, cfg=loose), g), True


def check(inst, lp, result, grads):
    """Classify an op's output against the instance's oracle answer."""
    if result.status is SolveStatus.LINSOLVE_FAILURE or not np.all(np.isfinite(result.x)):
        return Outcome(failed=True)
    if grads is not None and not all(np.all(np.isfinite(g)) for g in
                                     (grads.grad_c, grads.grad_A, grads.grad_b)):
        return Outcome(failed=True)
    if inst.is_path:
        error = abs(result.objective - inst.answer) / (1.0 + inst.answer)
        wrong = None if error <= PATH_GAP_GATE else f"path gap {error:.3e} > {PATH_GAP_GATE}"
        return Outcome(False, error, wrong)
    x_star = inst.answer
    error = float(np.linalg.norm(result.x - x_star) / np.linalg.norm(x_star))
    residual = float(np.linalg.norm(lp.A @ result.x - lp.b))
    wrong = None
    if residual > MATCH_RESIDUAL_GATE or np.min(result.x) < 0.0:
        wrong = f"matching residual {residual:.3e}, min x {np.min(result.x):.3e}"
    return Outcome(False, error, wrong)


def run_op(inst, lp):
    """execute + check, with the linear-solve failures counted as failed.
    Returns (outcome, seconds spent in execute)."""
    g = inst.loss_grad(lp)
    t0 = time.perf_counter()
    try:
        result, grads, retried = execute(inst, lp, g)
    except OP_FAILURES:
        return Outcome(failed=True), time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    return dataclasses.replace(check(inst, lp, result, grads), retried=retried), seconds


def dot_test(inst, seed):
    """Relative error of <g, jvp(d)> against <backward(g), d> for the op's
    g and a random direction d seeded by seed; None when one of its
    solves breaks down, and the instance is then left out of the test."""
    lp = inst.build()
    rng = np.random.default_rng(seed)
    dc = rng.standard_normal(lp.n)
    dA = rng.standard_normal((lp.m, lp.n))
    db = rng.standard_normal(lp.m)
    g = inst.loss_grad(lp)
    try:
        _, tape = autodiff.solve_with_tape(lp, inst.config())
        grads = autodiff.backward(tape, g)
        forward = float(g @ autodiff.jvp(tape, dc, dA, db))
    except OP_FAILURES:
        return None
    reverse = float(grads.grad_c @ dc + np.sum(grads.grad_A * dA) + grads.grad_b @ db)
    return abs(forward - reverse) / max(abs(forward), abs(reverse), np.finfo(float).tiny)


def ones_breaks_down(inst):
    """Whether backward(tape, ones) raises Breakdown on the instance."""
    lp = inst.build()
    _, tape = autodiff.solve_with_tape(lp, inst.config())
    try:
        autodiff.backward(tape, np.ones(lp.n))
    except Breakdown:
        return True
    return False
