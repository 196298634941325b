"""Independent reference solvers used by tests and benchmarks.

None of these share code with the dynamics: assignments come from the
exact Hungarian method, LP optima from brute-force enumeration of basic
feasible solutions, and path lengths from Dijkstra.  They exist to
check the iterative solver, so keep them boring and exact.
"""

import heapq
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
import scipy.optimize

from .errors import (DimensionMismatch, InfeasibleDetected, NonFiniteEntry,
                     TooLarge, Unreachable)
from .problems import Assignment, _check_graph

# guard rails for enumerate_vertices
MAX_COLUMNS = 24
MAX_BASES = 200_000
# two basic solutions closer than this (max-norm) count as one vertex
POINT_TOL = 1e-7
# objective gap under which an optimum is considered non-unique
UNIQUE_GAP = 1e-9


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


@dataclass
class VertexSolution:
    """Best vertex of a bounded standard-form LP.

    second_best_objective is the lowest objective over vertices distinct
    from the optimum (None when the optimum is the only vertex), so the
    optimality gap delta is second_best_objective - objective.  unique
    is False when another distinct vertex matches the optimum within
    1e-9.  skipped_singular counts bases whose square system could not
    be solved reliably.
    """

    x_star: np.ndarray
    objective: float
    basis: tuple
    unique: bool
    second_best_objective: float | None
    skipped_singular: int


def enumerate_vertices(lp, feas_tol=1e-9):
    """Brute-force optimum over basic feasible solutions.

    Walks every m-subset of columns, solves the square system, keeps
    the nonnegative solutions, and minimizes c.x over them.  Guarded to
    n <= 24 columns and C(n, m) <= 200,000 bases.  Assumes the feasible
    set is bounded; an unbounded problem silently yields its best
    vertex.  Raises InfeasibleDetected when no basis is feasible.
    """
    m, n = lp.A.shape
    if n > MAX_COLUMNS:
        raise TooLarge(f"{n} columns exceeds the {MAX_COLUMNS}-column guard")
    if m > n:
        raise InfeasibleDetected(f"more rows ({m}) than columns ({n}); no basis exists")
    n_bases = comb(n, m)
    if n_bases > MAX_BASES:
        raise TooLarge(f"C({n}, {m}) = {n_bases} bases exceeds the {MAX_BASES} guard")

    bnorm = float(np.linalg.norm(lp.b))
    skipped = 0
    found = []  # (objective, basis, x)
    for basis in combinations(range(n), m):
        A_B = lp.A[:, basis]
        try:
            x_B = np.linalg.solve(A_B, lp.b)
        except np.linalg.LinAlgError:
            skipped += 1
            continue
        if not np.all(np.isfinite(x_B)) or \
                np.linalg.norm(A_B @ x_B - lp.b) > 1e-9 * (1.0 + bnorm):
            skipped += 1
            continue
        if np.min(x_B) < -feas_tol:
            continue
        x = np.zeros(n)
        x[list(basis)] = np.maximum(x_B, 0.0)
        found.append((float(lp.c @ x), basis, x))

    if not found:
        raise InfeasibleDetected(f"no nonnegative basic solution among {n_bases} bases"
                                 f" ({skipped} singular)")

    found.sort(key=lambda t: (t[0], t[1]))
    best_obj, best_basis, best_x = found[0]
    unique = True
    second = None
    for obj, _, x in found[1:]:
        if np.max(np.abs(x - best_x)) <= POINT_TOL:
            continue  # same vertex through a different basis
        if second is None:
            second = obj
        if obj <= best_obj + UNIQUE_GAP:
            unique = False
    return VertexSolution(best_x, best_obj, best_basis, unique, second, skipped)


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
