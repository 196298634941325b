"""Shared instances: sparse LPs on the direct and the matrix-free path,
and one with flipped columns."""

import numpy as np
import pytest

from physlp import StandardFormLP
from physlp.problems import (Graph, MatchingInstance, build_matching_lp,
                             build_shortest_path_lp)


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
def dag_600():
    """Unit-flow LP on a 600-node DAG of out-degree 3 (599x1794): more
    rows than linalg.DIRECT_MAX_DIM, so matrix-free CG."""
    rng = np.random.default_rng(1)
    nodes = 600
    arcs = []
    for i in range(nodes - 1):
        k = min(3, nodes - 1 - i)
        heads = i + 1 + rng.choice(nodes - 1 - i, size=k, replace=False)
        arcs += [(i, int(j), float(w)) for j, w in zip(heads, rng.uniform(0.01, 1.0, size=k))]
    return build_shortest_path_lp(Graph(nodes, arcs), 0, nodes - 1)


@pytest.fixture(scope="session")
def signed_sparse_40x400():
    """40x400 LP with 5% nonzeros of both signs and a fifth of the costs
    negative, so prepare_lp flips columns (direct solves)."""
    rng = np.random.default_rng(2)
    A = rng.uniform(-1.0, 1.0, size=(40, 400)) * (rng.uniform(size=(40, 400)) < 0.05)
    A[np.arange(40), rng.choice(400, size=40, replace=False)] = 1.0
    c = rng.uniform(0.1, 1.0, size=400) * np.where(rng.uniform(size=400) < 0.2, -1.0, 1.0)
    return StandardFormLP(A, A @ rng.uniform(0.1, 1.0, size=400), c, box_bound=2.0)
