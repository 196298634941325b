"""Exact reference solvers that the CLI, the demos and the benchmark
check the dynamics against.

None of these share code with the dynamics: assignments come from the
exact Hungarian method and path lengths from Dijkstra.  They exist to
check the iterative solver, so keep them boring and exact.  Each
refuses its input with its builder's check (problems._check_costs and
_check_graph).  The brute-force vertex enumeration that the tests
check small LPs against is not here: only the tests use it, and it
lives in tests/vertex_oracle.py.

hungarian imports scipy.optimize, for linear_sum_assignment alone, on
its first call: the module took about a third of the import time of
physlp, whose import loads this module.
"""

import heapq

import numpy as np

from .errors import Unreachable
from .problems import Assignment, _check_costs, _check_graph


def hungarian(C):
    """Exact minimum-cost assignment of n >= 1 rows to m >= n columns."""
    from scipy.optimize import linear_sum_assignment

    C = np.asarray(C, dtype=np.float64)
    n, _ = _check_costs(C)
    rows, cols = linear_sum_assignment(C)
    mapping = np.empty(n, dtype=np.int64)
    mapping[rows] = cols
    return Assignment(mapping, float(C[rows, cols].sum()))


def dijkstra(graph, source, sink):
    """Shortest path for positive weights; returns (node path, length).

    Deterministic: equal-length alternatives resolve toward the lowest
    node index.  Checks the graph as build_shortest_path_lp does, and
    raises Unreachable when no path exists.
    """
    _check_graph(graph, source, sink)
    N = graph.num_nodes
    adj = [[] for _ in range(N)]
    for t, h, w in graph.arcs:
        adj[t].append((h, float(w)))
    for lst in adj:
        lst.sort()

    dist = np.full(N, np.inf)
    prev = np.full(N, -1, dtype=np.int64)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = np.zeros(N, dtype=bool)
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        if v == sink:
            break
        for nxt, w in adj[v]:
            nd = d + w
            if nd < dist[nxt]:
                dist[nxt] = nd
                prev[nxt] = v
                heapq.heappush(heap, (nd, nxt))
    if not np.isfinite(dist[sink]):
        raise Unreachable(f"node {sink} cannot be reached from node {source}")
    path = [sink]
    while path[-1] != source:
        path.append(int(prev[path[-1]]))
    path.reverse()
    return path, float(dist[sink])
