"""LP builders and decoders for the supported problem families.

Three families are covered: bipartite matching with per-column slacks,
an L1-regularized kernel SVM written as a feasibility-slack LP, and
single-pair shortest path on a directed graph.  Builders are pure
functions from instance data to StandardFormLP; decoders map a solved
vector back to the combinatorial object.  A generator for random
bounded-feasible LPs used by tests and benchmarks lives here as well.
Instances live in memory; the one file format here is the graph file
that physlp shortest-path reads (Graph.to_dict and Graph.from_dict).

The constraint matrix of an assignment LP depends only on its shape
(n, m), so build_matching_lp takes its WeightedOperator, with the Gram
map and the row split already built, from a cache of the last
MATCHING_CACHE_SHAPES shapes and makes the LP with
StandardFormLP.from_operator: every matching LP of one shape shares
one operator, and no solve rebuilds it.  The cache holds no dense A,
about 1 MB per 50x100 shape and 4 MB per 100x200 shape.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# validate stays imported unused: the benchmark's traced run wraps it here
from .core import SolverConfig, StandardFormLP, validate  # noqa: F401
from .errors import (DimensionMismatch, EmptyClass, KernelDegenerate,
                     NonFiniteEntry, Unreachable)
from .linalg import WeightedOperator

# Assignment shapes (n, m) whose operator build_matching_lp keeps.
MATCHING_CACHE_SHAPES = 8


# ---------------------------------------------------------------------------
# kernels

@dataclass(frozen=True)
class LinearKernel:
    """K(x, y) = x . y"""

    def gram(self, X, Y):
        return np.asarray(X, dtype=np.float64) @ np.asarray(Y, dtype=np.float64).T


@dataclass(frozen=True)
class GaussianKernel:
    """K(x, y) = exp(-||x - y||^2 / (2 sigma^2))"""

    sigma: float = 1.0

    def gram(self, X, Y):
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        sq = (np.sum(X ** 2, axis=1)[:, None] + np.sum(Y ** 2, axis=1)[None, :]
              - 2.0 * X @ Y.T)
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * self.sigma ** 2))


# ---------------------------------------------------------------------------
# bipartite matching, n templates against m >= n proposals

@dataclass
class Assignment:
    """One-to-one map from templates to proposals; cost is the summed
    matched cost when known (None when decoded without the matrix)."""

    map: np.ndarray
    cost: float | None = None

    def __post_init__(self):
        self.map = np.asarray(self.map, dtype=np.int64)
        if len(np.unique(self.map)) != self.map.size:
            raise DimensionMismatch("assignment map entries must be distinct")


@dataclass
class MatchingInstance:
    """Cost matrix C of shape (n, m) with n <= m, plus the slack cost
    gamma (None picks 1 / (2 sqrt(m)))."""

    C: np.ndarray
    gamma: float | None = None

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=np.float64)


def matching_slack_gamma(m):
    """Default slack cost, 1 / (2 sqrt(m)) for m proposal slacks."""
    return 0.5 / math.sqrt(m)


def matching_feasible_point(n, m):
    """Interior witness: X = 1/m on every entry, s = 1 - n/m."""
    return np.concatenate([np.full(n * m, 1.0 / m), np.full(m, 1.0 - n / m)])


def build_matching_lp(inst):
    """Relaxation  min tr(C X^T) + gamma * sum(s)  subject to
    X 1_m = 1_n and X^T 1_n + s = 1_m, X >= 0, s >= 0.

    Variables are X in row-major order followed by the m slacks, so the
    LP has n*m + m columns and n + m rows.  Every feasible point lies
    in [0, 1], recorded as box_bound.  LPs of one shape share one
    operator, lp.operator; each owns its A, b and c.
    """
    C = inst.C
    if C.ndim != 2:
        raise DimensionMismatch(f"C must be 2-D, got ndim={C.ndim}")
    n, m = C.shape
    if n < 1 or m < n:
        raise DimensionMismatch(f"need 1 <= n <= m, got C shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise NonFiniteEntry("C contains a non-finite entry")
    gamma = matching_slack_gamma(m) if inst.gamma is None else float(inst.gamma)

    c = np.concatenate([C.ravel(), np.full(m, gamma)])
    return StandardFormLP.from_operator(_matching_operator(n, m), np.ones(n + m), c, box_bound=1.0)


@lru_cache(maxsize=MATCHING_CACHE_SHAPES)
def _matching_operator(n, m):
    """The WeightedOperator of the n-by-m assignment matrix, with its
    Gram map and row split built.

    A depends on (n, m) alone, so every matching LP of one shape shares
    this operator.  Built here, the Gram map and split are never built
    lazily on a shared operator.  The dense A is dropped once the
    operator is built.
    """
    A = np.zeros((n + m, n * m + m))
    for i in range(n):
        A[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        A[n + j, j:n * m:m] = 1.0
        A[n + j, n * m + j] = 1.0
    op = WeightedOperator(A)
    op._split  # builds op._pattern first
    # every LP of the shape reads these, so a write raises rather than
    # reaching them all
    for arr in (op.A.data, op.A.indices, op.A.indptr):
        arr.flags.writeable = False
    return op


def split_matching_vars(x, n, m):
    """View the flat LP vector as (X, s) blocks."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n * m + m,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({n * m + m},)")
    return x[:n * m].reshape(n, m), x[n * m:]


def decode_matching(x, n, m, C=None):
    """Greedy rounding of the relaxed X block.

    Repeatedly picks the largest remaining entry and crosses out its
    row and column; ties go to the lowest row, then the lowest column.
    cost is filled against C when it is supplied.
    """
    X, _ = split_matching_vars(x, n, m)
    work = X.copy()
    mapping = np.full(n, -1, dtype=np.int64)
    for _ in range(n):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        mapping[i] = j
        work[i, :] = -np.inf
        work[:, j] = -np.inf
    cost = float(np.sum(C[np.arange(n), mapping])) if C is not None else None
    return Assignment(mapping, cost)


def assignment_to_vector(mapping, n, m):
    """Embed a one-to-one map as the 0/1 LP vector: X[i, map[i]] = 1,
    slack 1 on every unmatched column."""
    mapping = np.asarray(mapping, dtype=np.int64)
    if mapping.shape != (n,):
        raise DimensionMismatch(f"map has shape {mapping.shape}, expected ({n},)")
    if len(np.unique(mapping)) != n:
        raise DimensionMismatch("map entries must be distinct")
    X = np.zeros((n, m))
    X[np.arange(n), mapping] = 1.0
    s = 1.0 - X.sum(axis=0)
    return np.concatenate([X.ravel(), s])


def matching_cost_gradient(grad_c, n, m):
    """Extract d(loss)/dC from an LP cost gradient (slack part dropped)."""
    grad_c = np.asarray(grad_c, dtype=np.float64)
    if grad_c.shape != (n * m + m,):
        raise DimensionMismatch(f"grad_c has shape {grad_c.shape}, expected ({n * m + m},)")
    return grad_c[:n * m].reshape(n, m).copy()


# ---------------------------------------------------------------------------
# L1 kernel SVM

@dataclass
class SvmInstance:
    """Binary training set with labels in {-1, +1}.

    c_reg weights the hinge slack, big_m is the small constraint
    relaxation bought by the binary-like z block.  The solver's
    zero-cost perturbation is SolverConfig.gamma.
    """

    points: np.ndarray
    labels: np.ndarray
    kernel: object = field(default_factory=LinearKernel)
    c_reg: float = 1.0
    big_m: float = 0.001

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)


def _svm_offsets(n):
    """Column offsets of the blocks [a1, a2, s, b1, b2, xi, z, l, p, q, r]."""
    return {"a1": 0, "a2": n, "s": 2 * n, "b1": 3 * n, "b2": 3 * n + 1,
            "xi": 3 * n + 2, "z": 4 * n + 2, "l": 5 * n + 2,
            "p": 6 * n + 2, "q": 7 * n + 2, "r": 8 * n + 2}


def svm_feasible_point(n):
    """All-slack witness: xi = 1, r = 1, everything else 0."""
    off = _svm_offsets(n)
    x = np.zeros(9 * n + 2)
    x[off["xi"]:off["xi"] + n] = 1.0
    x[off["r"]:off["r"] + n] = 1.0
    return x


def build_l1svm_lp(inst):
    """Split-variable LP for the L1 kernel SVM.

    With G[i, j] = y_j K(x_i, x_j) and alpha = a1 - a2, the rows are,
    for each training point i:

        y_i (sum_j G[i,j] (a1_j - a2_j) + b1 - b2) + xi_i - M z_i - l_i = 1
        sum_j G[i,j] (a1_j - a2_j) - s_i + p_i = 0
        sum_j G[i,j] (a1_j - a2_j) + s_i - q_i = 0
        z_i + r_i = 1

    and the cost is sum(s) + C * sum(xi) + 2C * sum(z).  The layout is
    [a1(n), a2(n), s(n), b1, b2, xi(n), z(n), l(n), p(n), q(n), r(n)],
    giving 9n + 2 variables and 4n equalities.
    """
    X = inst.points
    y = inst.labels
    if X.ndim != 2:
        raise DimensionMismatch(f"points must be 2-D, got ndim={X.ndim}")
    n = X.shape[0]
    if n < 1:
        raise DimensionMismatch("need at least one training point")
    if y.shape != (n,):
        raise DimensionMismatch(f"labels have shape {y.shape}, expected ({n},)")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DimensionMismatch("labels must be -1 or +1")
    if inst.c_reg <= 0.0 or inst.big_m <= 0.0:
        raise ValueError("c_reg and big_m must be positive")

    G = inst.kernel.gram(X, X) * y[np.newaxis, :]
    if not np.all(np.isfinite(G)):
        raise KernelDegenerate("kernel matrix contains non-finite entries")

    off = _svm_offsets(n)
    n_var = 9 * n + 2
    A = np.zeros((4 * n, n_var))
    b = np.zeros(4 * n)
    idx = np.arange(n)

    # margin rows
    r0 = idx
    A[np.ix_(r0, off["a1"] + idx)] = y[:, np.newaxis] * G
    A[np.ix_(r0, off["a2"] + idx)] = -y[:, np.newaxis] * G
    A[r0, off["b1"]] = y
    A[r0, off["b2"]] = -y
    A[r0, off["xi"] + idx] = 1.0
    A[r0, off["z"] + idx] = -inst.big_m
    A[r0, off["l"] + idx] = -1.0
    b[r0] = 1.0

    # lower envelope rows: G alpha - s + p = 0
    r1 = n + idx
    A[np.ix_(r1, off["a1"] + idx)] = G
    A[np.ix_(r1, off["a2"] + idx)] = -G
    A[r1, off["s"] + idx] = -1.0
    A[r1, off["p"] + idx] = 1.0

    # upper envelope rows: G alpha + s - q = 0
    r2 = 2 * n + idx
    A[np.ix_(r2, off["a1"] + idx)] = G
    A[np.ix_(r2, off["a2"] + idx)] = -G
    A[r2, off["s"] + idx] = 1.0
    A[r2, off["q"] + idx] = -1.0

    # z_i + r_i = 1
    r3 = 3 * n + idx
    A[r3, off["z"] + idx] = 1.0
    A[r3, off["r"] + idx] = 1.0
    b[r3] = 1.0

    c = np.zeros(n_var)
    c[off["s"]:off["s"] + n] = 1.0
    c[off["xi"]:off["xi"] + n] = inst.c_reg
    c[off["z"]:off["z"] + n] = 2.0 * inst.c_reg

    return StandardFormLP(A, b, c)


@dataclass
class SvmClassifier:
    """Kernel expansion classifier f(x) = sum_j y_j alpha_j K(x, x_j) + bias."""

    alpha: np.ndarray
    bias: float
    points: np.ndarray
    labels: np.ndarray
    kernel: object

    def decision(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return self.kernel.gram(X, self.points) @ (self.labels * self.alpha) + self.bias

    def predict(self, X):
        return np.where(self.decision(X) >= 0.0, 1.0, -1.0)


def decode_svm(x, inst):
    """Recombine the split variables: alpha = a1 - a2, bias = b1 - b2."""
    n = inst.points.shape[0]
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (9 * n + 2,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({9 * n + 2},)")
    off = _svm_offsets(n)
    alpha = x[off["a1"]:off["a1"] + n] - x[off["a2"]:off["a2"] + n]
    bias = float(x[off["b1"]] - x[off["b2"]])
    return SvmClassifier(alpha, bias, inst.points, inst.labels, inst.kernel)


def fit_svm(inst, cfg=None):
    """Solve the instance LP and decode; returns (classifier, result)."""
    from .solver import solve

    if cfg is None:
        cfg = SolverConfig(max_iters=300)
    lp = build_l1svm_lp(inst)
    result = solve(lp, cfg)
    return decode_svm(result.x, inst), result


@dataclass
class PairwiseSvmEnsemble:
    """One-vs-one reduction: one binary instance per unordered class
    pair, the first class of the pair playing +1."""

    classes: np.ndarray
    pairs: list
    instances: list

    def fit(self, cfg=None):
        return [fit_svm(inst, cfg)[0] for inst in self.instances]

    def predict(self, classifiers, X):
        """Majority vote; ties go to the lowest class index."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        votes = np.zeros((X.shape[0], len(self.classes)))
        for (a, b), clf in zip(self.pairs, classifiers):
            pred = clf.predict(X)
            votes[:, a] += pred > 0
            votes[:, b] += pred < 0
        return self.classes[np.argmax(votes, axis=1)]


def pairwise_multiclass(points, labels, kernel=None, c_reg=1.0, big_m=0.001):
    """Build the k-choose-2 binary instances for a k-class training set."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.ndim != 2 or labels.shape != (points.shape[0],):
        raise DimensionMismatch("points must be (n, d) with one label per row")
    if kernel is None:
        kernel = LinearKernel()
    classes = np.unique(labels)
    if classes.size < 2:
        raise EmptyClass(f"need at least two classes, got {classes.size}")
    pairs = []
    instances = []
    for a in range(classes.size):
        for b in range(a + 1, classes.size):
            mask = (labels == classes[a]) | (labels == classes[b])
            y = np.where(labels[mask] == classes[a], 1.0, -1.0)
            pairs.append((a, b))
            instances.append(SvmInstance(points[mask], y, kernel, c_reg=c_reg, big_m=big_m))
    return PairwiseSvmEnsemble(classes, pairs, instances)


def two_gaussian_blobs(n_per_class, dim, sep, rng):
    """Isotropic blobs at +/- (sep / sqrt(dim)) * ones; labels +/-1."""
    mu = (sep / math.sqrt(dim)) * np.ones(dim)
    plus = rng.normal(size=(n_per_class, dim)) + mu
    minus = rng.normal(size=(n_per_class, dim)) - mu
    points = np.vstack([plus, minus])
    labels = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return points, labels


# ---------------------------------------------------------------------------
# shortest path

@dataclass
class Graph:
    """Directed graph as an arc list [(tail, head, weight), ...]."""

    num_nodes: int
    arcs: list

    def to_dict(self):
        return {"nodes": int(self.num_nodes),
                "arcs": [[int(t), int(h), float(w)] for t, h, w in self.arcs]}

    @staticmethod
    def from_dict(d):
        return Graph(int(d["nodes"]), [(int(t), int(h), float(w)) for t, h, w in d["arcs"]])


def _check_graph(graph, source, sink):
    N = graph.num_nodes
    if not 0 <= source < N or not 0 <= sink < N:
        raise DimensionMismatch(f"source/sink must lie in [0, {N}), got {source}, {sink}")
    for t, h, w in graph.arcs:
        if not 0 <= t < N or not 0 <= h < N:
            raise DimensionMismatch(f"arc ({t}, {h}) references a node outside [0, {N})")
        if not math.isfinite(w) or w <= 0.0:
            raise ValueError(f"arc ({t}, {h}) needs a positive finite weight, got {w}")


def _reachable(graph, source):
    adj = [[] for _ in range(graph.num_nodes)]
    for t, h, _ in graph.arcs:
        adj[t].append(h)
    seen = {source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for nxt in adj[v]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def build_shortest_path_lp(graph, source, sink):
    """Unit-flow LP on the node-arc incidence matrix.

    Each arc contributes +1 at its tail row and -1 at its head row; the
    source row is dropped (it is implied by the others), so b is -1 at
    the sink and 0 elsewhere.  Rows of isolated nodes are dropped too.
    Costs are the arc weights.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    _check_graph(graph, source, sink)
    if sink not in _reachable(graph, source):
        raise Unreachable(f"node {sink} cannot be reached from node {source}")
    N = graph.num_nodes
    n_arcs = len(graph.arcs)
    A_full = np.zeros((N, n_arcs))
    for j, (t, h, _) in enumerate(graph.arcs):
        A_full[t, j] += 1.0
        A_full[h, j] -= 1.0
    touched = np.any(A_full != 0.0, axis=1)
    keep = [v for v in range(N) if v != source and touched[v]]
    A = A_full[keep]
    A.flags.writeable = False  # a new array, so the LP keeps it uncopied
    b = np.zeros(len(keep))
    b[keep.index(sink)] = -1.0
    c = np.array([w for _, _, w in graph.arcs])
    return StandardFormLP(A, b, c)


# ---------------------------------------------------------------------------
# random bounded-feasible instances

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
