"""Shared instances: sparse LPs on the direct and the CG path, one
with negative costs and potentials, and one with a dense A."""

import numpy as np
import pytest

from physlp import StandardFormLP
from physlp.problems import (GaussianKernel, Graph, MatchingInstance, SvmInstance,
                             build_l1svm_lp, build_matching_lp,
                             build_shortest_path_lp, two_gaussian_blobs)


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


@pytest.fixture(scope="session")
def dag_600_graph():
    """A 600-node DAG of out-degree 3 (1794 arcs i -> j > i)."""
    rng = np.random.default_rng(1)
    nodes = 600
    arcs = []
    for i in range(nodes - 1):
        k = min(3, nodes - 1 - i)
        heads = i + 1 + rng.choice(nodes - 1 - i, size=k, replace=False)
        arcs += [(i, int(j), float(w)) for j, w in zip(heads, rng.uniform(0.01, 1.0, size=k))]
    return Graph(nodes, arcs)


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
