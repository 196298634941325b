"""Exact reference solvers that the CLI, the demos and the benchmark
check the dynamics against.

None of these share code with the dynamics: assignments come from the
exact Hungarian method and path lengths from Dijkstra.  They exist to
check the iterative solver, so keep them boring and exact.  The
brute-force vertex enumeration that the tests check small LPs against
is not here: only the tests use it, and it lives in
tests/vertex_oracle.py.
"""

import heapq

import numpy as np
import scipy.optimize

from .errors import DimensionMismatch, NonFiniteEntry, Unreachable
from .problems import Assignment, _check_graph


def hungarian(C):
    """Exact minimum-cost assignment of n rows to m >= n columns."""
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise DimensionMismatch(f"C must be 2-D, got ndim={C.ndim}")
    n, m = C.shape
    if n > m:
        raise DimensionMismatch(f"need n <= m, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise NonFiniteEntry("C contains a non-finite entry")
    rows, cols = scipy.optimize.linear_sum_assignment(C)
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
