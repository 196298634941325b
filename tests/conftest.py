"""Shared instances: sparse LPs on the direct and the CG path, one
with negative costs and potentials, and one with a dense A; and the
helpers that only tests use: random bounded LPs and 600-node DAGs,
feasible points of the matching and SVM LPs, and the forward loop run
again from a tape.

The test modules import the helpers from this module, which is why
tests is a package."""

from itertools import islice

import numpy as np
import pytest

from physlp import StandardFormLP, solver
from physlp.errors import DimensionMismatch
from physlp.problems import (GaussianKernel, Graph, MatchingInstance, SvmInstance,
                             _svm_offsets, build_l1svm_lp, build_matching_lp,
                             build_shortest_path_lp, two_gaussian_blobs)


def random_bounded_lp(rng, m_rows, n_cols):
    """Random standard-form LP with a known interior feasible point.

    All entries of A are positive, so the feasible set is bounded; b is
    A @ x_feas for a strictly positive x_feas, and c is strictly
    positive.  Returns (lp, x_feas).
    """
    if not 1 <= m_rows < n_cols:
        raise DimensionMismatch(f"need 1 <= m_rows < n_cols, got {m_rows}, {n_cols}")
    A = rng.uniform(0.05, 1.0, size=(m_rows, n_cols))
    x_feas = rng.uniform(0.2, 1.0, size=n_cols)
    b = A @ x_feas
    c = rng.uniform(0.1, 1.0, size=n_cols)
    return StandardFormLP(A, b, c), x_feas


def matching_feasible_point(n, m):
    """Interior point of the n-by-m assignment LP: X = 1/m on every
    entry, s = 1 - n/m."""
    return np.concatenate([np.full(n * m, 1.0 / m), np.full(m, 1.0 - n / m)])


def svm_feasible_point(n):
    """All-slack point of the SVM LP of n points: xi = 1, r = 1,
    everything else 0."""
    off = _svm_offsets(n)
    x = np.zeros(9 * n + 2)
    x[off["xi"]:off["xi"] + n] = 1.0
    x[off["r"]:off["r"] + n] = 1.0
    return x


def clamp_fired(tape):
    """Whether the clamp was active at any step on any coordinate."""
    return any(not det.clamp_mask.all() for det in tape.steps)


def step_tols(res, tape):
    """The relative target each step of the tape solved to, as the
    forward loop sets it: solver.forward_tol of the residual of the
    step's input, which is the initial iterate's for the first step and
    the trace residual of the step before for the others; res is the
    SolveResult that came with the tape."""
    bnorm = float(np.linalg.norm(tape.prep.source.b))
    inputs = [solver._evaluate(tape.prep, det.x_prev)[1] for det in tape.steps[:1]]
    inputs += [rec.residual for rec in res.trace[:len(tape) - 1]]
    return np.array([solver.forward_tol(tape.cfg, r, bnorm) for r in inputs])


def rerun(tape):
    """The post-clamp iterates of the forward loop, solver._iterate, run
    again from the initial iterate, tape.steps[0].x_prev, for as many
    steps as the tape holds; it stops before a step the tape does not
    hold, so a tape that ended early or at LINSOLVE_FAILURE is rerun as
    recorded."""
    if not tape.steps:
        return []
    x0 = tape.steps[0].x_prev
    return [det.x_new for det, *_ in islice(solver._iterate(tape.prep, x0, tape.cfg), len(tape))]


@pytest.fixture(scope="session")
def matching_5x50():
    """5x50 assignment LP (55x300), the match-small size: direct solves."""
    C = np.random.default_rng(3).uniform(size=(5, 50))
    return build_matching_lp(MatchingInstance(C))


@pytest.fixture(scope="session")
def matching_50x100():
    """50x100 assignment LP (150x5100): direct solves."""
    C = np.random.default_rng(0).uniform(size=(50, 100))
    return build_matching_lp(MatchingInstance(C))


def random_dag_600(seed):
    """A 600-node DAG of out-degree 3 (1794 arcs i -> j > i), drawn from
    a generator seeded with seed."""
    rng = np.random.default_rng(seed)
    nodes = 600
    arcs = []
    for i in range(nodes - 1):
        k = min(3, nodes - 1 - i)
        heads = i + 1 + rng.choice(nodes - 1 - i, size=k, replace=False)
        arcs += [(i, int(j), float(w)) for j, w in zip(heads, rng.uniform(0.01, 1.0, size=k))]
    return Graph(nodes, arcs)


@pytest.fixture(scope="session")
def dag_600_graph():
    """random_dag_600 of seed 1."""
    return random_dag_600(1)


@pytest.fixture(scope="session")
def dag_600(dag_600_graph):
    """Unit-flow LP from node 0 to node 599 of dag_600_graph (599x1794):
    more rows than linalg.DIRECT_MAX_DIM, so CG on the sparse A W A^T."""
    return build_shortest_path_lp(dag_600_graph, 0, dag_600_graph.num_nodes - 1)


@pytest.fixture(scope="session")
def signed_sparse_40x400():
    """40x400 LP with 5% nonzeros of both signs and a fifth of its costs
    negative (direct solves).  The costs are c = c_hat + A^T pi for
    drawn potentials pi and a positive c_hat, and the LP carries pi: its
    working cost is c_hat, and it is dual-feasible, so bounded, by
    construction."""
    rng = np.random.default_rng(2)
    A = rng.uniform(-1.0, 1.0, size=(40, 400)) * (rng.uniform(size=(40, 400)) < 0.05)
    A[np.arange(40), rng.choice(400, size=40, replace=False)] = 1.0
    b = A @ rng.uniform(0.1, 1.0, size=400)
    pi = rng.normal(size=40)
    c = rng.uniform(0.1, 1.0, size=400) + A.T @ pi
    return StandardFormLP(A, b, c, pi)


@pytest.fixture(scope="session")
def svm_20():
    """The svm-demo LP on 20 points (80x182, 18% nonzeros): a dense A,
    whose Gram pattern is built from 145k column pairs (direct solves)."""
    points, labels = two_gaussian_blobs(10, 4, 2.0, np.random.default_rng(0))
    return build_l1svm_lp(SvmInstance(points, labels, GaussianKernel(sigma=1.0), c_reg=2.0))
