"""LP builders and decoders for the supported problem families.

Three families are covered: bipartite matching with per-column slacks,
an L1-regularized kernel SVM written as a feasibility-slack LP, and
single-pair shortest path on a directed graph.  Builders are pure
functions from instance data to StandardFormLP and import nothing of
the solver: a caller solves the LP with physlp.solve and hands its x
to a decoder, which maps it back to the combinatorial object.
Instances live in memory; the one file format here is the graph file
that physlp shortest-path reads (Graph.to_dict and Graph.from_dict).

The constraint matrix of an assignment LP depends only on its shape
(n, m), so build_matching_lp takes its WeightedOperator, with the Gram
map and the row split already built, from a cache of the last
MATCHING_CACHE_SHAPES shapes and makes the LP with
StandardFormLP.from_operator: every matching LP of one shape shares
one operator and its read-only CSR A, and no solve rebuilds it.  The
cache holds about 1 MB per 50x100 shape and 4 MB per 100x200 shape.
Every builder makes A as CSR, with no m-by-n array.

Each setting is checked once, where it is read, and raises InputError
out of range: the Gaussian kernel's sigma when the kernel is built,
the blob generator's sizes and separation, the SVM LP's c_reg and
big_m in build_l1svm_lp.  A graph and a cost matrix are checked by
_check_graph and _check_costs, which the oracles share.  The SVM
labels, the vectors that the decoders take and decode_matching's C
pass core.checked_array: a wrong shape raises DimensionMismatch and a NaN
or infinite entry NonFiniteEntry.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse

# validate stays imported unused: the benchmark's traced run wraps it here
from .core import A_MAX, StandardFormLP, checked_array, validate  # noqa: F401
from .errors import DimensionMismatch, InputError, NonFiniteEntry, Unreachable
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
    """K(x, y) = exp(-||x - y||^2 / (2 sigma^2))

    sigma must be positive with 2 sigma^2 positive and finite, or the
    kernel raises InputError when it is built: at 1e-300 the square
    underflows to 0, at 1e200 it overflows, and at inf every entry is 1.
    """

    sigma: float = 1.0

    def __post_init__(self):
        # sigma * sigma, as sigma ** 2 raises OverflowError at 1e200
        if not (self.sigma > 0.0 and 0.0 < 2.0 * self.sigma * self.sigma < math.inf):
            raise InputError(f"sigma must be positive with 2 sigma^2 positive and finite, "
                             f"got {self.sigma}")

    def gram(self, X, Y):
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        # from the differences, not |x|^2 + |y|^2 - 2 x.y, which cancels
        # for points far from the origin; a far pair's square, or its
        # quotient by a tiny 2 sigma^2, overflows to inf, and exp(-inf)
        # = 0 is its kernel value
        with np.errstate(over="ignore"):
            sq = np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=2)
            return np.exp(-sq / (2.0 * self.sigma * self.sigma))


# ---------------------------------------------------------------------------
# bipartite matching, n templates against m >= n proposals

@dataclass(eq=False)
class Assignment:
    """One-to-one map from templates to proposals; cost is the summed
    matched cost when known (None when decoded without the matrix)."""

    map: np.ndarray
    cost: float | None = None

    def __post_init__(self):
        self.map = np.asarray(self.map, dtype=np.int64)
        if len(np.unique(self.map)) != self.map.size:
            raise DimensionMismatch("assignment map entries must be distinct")


@dataclass(eq=False)
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


def build_matching_lp(inst):
    """Relaxation  min tr(C X^T) + gamma * sum(s)  subject to
    X 1_m = 1_n and X^T 1_n + s = 1_m, X >= 0, s >= 0.

    Variables are X in row-major order followed by the m slacks, so the
    LP has n*m + m columns and n + m rows.  LPs of one shape share one
    operator, lp.operator, and its read-only A; each owns its b and c.

    Where C or gamma has a negative entry, the LP carries potentials pi
    that make every working cost c - A^T pi positive: template row i
    whose row of C has a negative entry gets min_j C_ij - delta, every
    proposal row gets gamma - delta when gamma < 0, and every other row
    0, with delta = matching_slack_gamma(m).  With C >= 0 and gamma >= 0
    no potentials are set.
    """
    C = inst.C
    n, m = _check_costs(C)
    gamma = matching_slack_gamma(m) if inst.gamma is None else float(inst.gamma)

    c = np.concatenate([C.ravel(), np.full(m, gamma)])
    potentials = None
    row_min = C.min(axis=1)
    if row_min.min() < 0.0 or gamma < 0.0:
        delta = matching_slack_gamma(m)
        potentials = np.concatenate((np.where(row_min < 0.0, row_min - delta, 0.0),
                                     np.full(m, gamma - delta if gamma < 0.0 else 0.0)))
    return StandardFormLP.from_operator(_matching_operator(n, m), np.ones(n + m), c, potentials)


def _check_costs(C):
    """(n, m) of C, a finite float n-by-m cost matrix with 1 <= n <= m."""
    if C.ndim != 2:
        raise DimensionMismatch(f"C must be 2-D, got ndim={C.ndim}")
    n, m = C.shape
    if n < 1 or m < n:
        raise DimensionMismatch(f"need 1 <= n <= m, got C shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise NonFiniteEntry("C contains a non-finite entry")
    return n, m


@lru_cache(maxsize=MATCHING_CACHE_SHAPES)
def _matching_operator(n, m):
    """The WeightedOperator of the n-by-m assignment matrix, with its
    Gram map and row split built.

    A depends on (n, m) alone, so every matching LP of one shape shares
    this operator and its A, built as CSR: row i < n holds the columns
    of X's row i, row n + j those of X's column j and slack j, all 1.
    Built here, the Gram map and split are never built lazily on a
    shared operator.
    """
    indptr = np.concatenate((m * np.arange(n + 1), n * m + (n + 1) * np.arange(1, m + 1)))
    # the columns n*m + m in n + 1 blocks of m: block k holds X's row k,
    # and the last the slacks, so the transpose lists X's columns
    indices = np.concatenate((np.arange(n * m), np.arange((n + 1) * m).reshape(n + 1, m).T.ravel()))
    A = scipy.sparse.csr_array((np.ones(indices.size), indices, indptr),
                               shape=(n + m, n * m + m))
    # read-only: the LPs of the shape keep it uncopied, and a write
    # raises rather than reaching them all
    for arr in (A.data, A.indices, A.indptr):
        arr.flags.writeable = False
    op = WeightedOperator(A)
    op._pattern  # builds the Gram map and the row split
    return op


def split_matching_vars(x, n, m):
    """View the flat LP vector x, which core.checked_array checks, as
    (X, s) blocks."""
    x = checked_array(x, (n * m + m,), "x")
    return x[:n * m].reshape(n, m), x[n * m:]


def decode_matching(x, n, m, C=None):
    """Greedy rounding of the relaxed X block.

    Repeatedly picks the largest remaining entry and crosses out its
    row and column; ties go to the lowest row, then the lowest column.
    cost is filled against C, an n-by-m array, when it is supplied.
    x is checked as split_matching_vars checks it, and C by
    core.checked_array.
    """
    X, _ = split_matching_vars(x, n, m)
    if C is not None:
        C = checked_array(C, (n, m), "C")
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
    """Embed a map of n distinct columns in [0, m) as the 0/1 LP vector:
    X[i, map[i]] = 1, slack 1 on every unmatched column."""
    mapping = Assignment(mapping).map  # refuses a repeated entry
    if mapping.shape != (n,) or not np.all((0 <= mapping) & (mapping < m)):
        raise DimensionMismatch(f"map must hold {n} columns in [0, {m}), got {mapping}")
    X = np.zeros((n, m))
    X[np.arange(n), mapping] = 1.0
    s = 1.0 - X.sum(axis=0)
    return np.concatenate([X.ravel(), s])


def matching_cost_gradient(grad_c, n, m):
    """Extract d(loss)/dC from an LP cost gradient (slack part dropped),
    which core.checked_array checks."""
    grad_c = checked_array(grad_c, (n * m + m,), "grad_c")
    return grad_c[:n * m].reshape(n, m).copy()


# ---------------------------------------------------------------------------
# L1 kernel SVM

@dataclass(eq=False)
class SvmInstance:
    """Binary training set with labels in {-1, +1}.

    c_reg weights the hinge slack, big_m is the small constraint
    relaxation bought by the binary-like z block; build_l1svm_lp, which
    reads them, refuses either unless it is positive and finite.  The
    solver raises the LP's zero costs to the constant
    solver.default_gamma(m, n).
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


def _kernel_block(inst):
    """(G / s, s) for G[i, j] = y_j K(x_i, x_j) and s = max |G|, or 1
    for an all-zero G: build_l1svm_lp writes G / s into the LP, and
    decode_svm divides alpha by s.  G alpha = (G / s)(s alpha), so the
    LP's classifier does not depend on s, and its entries stay at most
    1 beside the unit slack entries: a linear kernel of far points has
    entries of the order of their squared distance from the origin,
    and the dynamics stalled on them.  A Gaussian G has s = 1 exactly,
    its diagonal being exp(0) = 1.  NonFiniteEntry is raised when G has
    a non-finite entry."""
    G = inst.kernel.gram(inst.points, inst.points) * inst.labels[np.newaxis, :]
    if not np.all(np.isfinite(G)):
        raise NonFiniteEntry("kernel matrix contains non-finite entries")
    s = float(np.abs(G).max()) or 1.0
    return G / s, s


def build_l1svm_lp(inst):
    """Split-variable LP for the L1 kernel SVM.

    With G[i, j] = y_j K(x_i, x_j) / s, s = max |y_j K(x_i, x_j)| (see
    _kernel_block), and alpha = a1 - a2, the rows are, for each
    training point i:

        y_i (sum_j G[i,j] (a1_j - a2_j) + b1 - b2) + xi_i - M z_i - l_i = 1
        sum_j G[i,j] (a1_j - a2_j) - s_i + p_i = 0
        sum_j G[i,j] (a1_j - a2_j) + s_i - q_i = 0
        z_i + r_i = 1

    and the cost is sum(s) + C * sum(xi) + 2C * sum(z).  The layout is
    [a1(n), a2(n), s(n), b1, b2, xi(n), z(n), l(n), p(n), q(n), r(n)],
    giving 9n + 2 variables and 4n equalities.

    Raises DimensionMismatch for points, labels or labels' values that
    do not fit, InputError unless c_reg and big_m are positive and
    finite, and NonFiniteEntry when the labels or the kernel matrix
    have a non-finite entry.
    """
    X = inst.points
    if X.ndim != 2:
        raise DimensionMismatch(f"points must be 2-D, got ndim={X.ndim}")
    n = X.shape[0]
    if n < 1:
        raise DimensionMismatch("need at least one training point")
    y = checked_array(inst.labels, (n,), "labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DimensionMismatch("labels must be -1 or +1")
    # the chained test also rejects NaN
    if not (0.0 < inst.c_reg < math.inf and 0.0 < inst.big_m < math.inf):
        raise InputError(f"c_reg and big_m must be positive and finite, "
                         f"got {inst.c_reg} and {inst.big_m}")

    G = _kernel_block(inst)[0]

    # block rows: margin, lower envelope, upper envelope, z + r = 1;
    # block columns in the layout of _svm_offsets; None is a zero block
    yG, y_col, I = y[:, np.newaxis] * G, y[:, np.newaxis], np.eye(n)
    A = scipy.sparse.block_array(
        [[yG, -yG, None, y_col, -y_col, I, -inst.big_m * I, -I, None, None, None],
         [G, -G, -I, None, None, None, None, None, I, None, None],
         [G, -G, I, None, None, None, None, None, None, -I, None],
         [None, None, None, None, None, None, I, None, None, None, I]], format="csr")
    b = np.concatenate((np.ones(n), np.zeros(2 * n), np.ones(n)))
    c = np.concatenate((np.zeros(2 * n), np.ones(n), np.zeros(2), np.full(n, float(inst.c_reg)),
                        np.full(n, 2.0 * inst.c_reg), np.zeros(4 * n)))
    return StandardFormLP(A, b, c)


@dataclass(eq=False)
class SvmClassifier:
    """Kernel expansion classifier f(x) = sum_j y_j alpha_j K(x, x_j) + bias."""

    alpha: np.ndarray
    bias: float
    points: np.ndarray
    labels: np.ndarray
    kernel: object

    def decision(self, X):
        """f at each row of X, or at X itself when it is one point: X
        passes core.checked_array with the width of points."""
        X = np.atleast_2d(X)
        X = checked_array(X, (X.shape[0], self.points.shape[1]), "X")
        return self.kernel.gram(X, self.points) @ (self.labels * self.alpha) + self.bias

    def predict(self, X):
        """The sign of decision(X), +1 at zero."""
        return np.where(self.decision(X) >= 0.0, 1.0, -1.0)


def decode_svm(x, inst):
    """Recombine the split variables of x, which core.checked_array
    checks: alpha = (a1 - a2) / s, with the scale s of the kernel block
    that build_l1svm_lp wrote, which _kernel_block computes again, and
    bias = b1 - b2."""
    n = inst.points.shape[0]
    x = checked_array(x, (9 * n + 2,), "x")
    off = _svm_offsets(n)
    s = _kernel_block(inst)[1]
    alpha = (x[off["a1"]:off["a1"] + n] - x[off["a2"]:off["a2"] + n]) / s
    bias = float(x[off["b1"]] - x[off["b2"]])
    return SvmClassifier(alpha, bias, inst.points, inst.labels, inst.kernel)


def two_gaussian_blobs(n_per_class, dim, sep, rng):
    """n_per_class points of each label, +1 then -1, drawn from
    isotropic unit Gaussians in dim dimensions centred at
    +/- (sep / sqrt(dim)) * ones.  Raises InputError unless n_per_class
    and dim are at least 1 and sep * sep is finite, as it is for |sep|
    at most core.A_MAX, about 1.34e154: the kernels square distances of
    the order of sep."""
    # NaN fails the comparison too
    if n_per_class < 1 or dim < 1 or not abs(sep) <= A_MAX:
        raise InputError(f"need n_per_class >= 1, dim >= 1 and a sep whose square is finite, "
                         f"got {n_per_class}, {dim} and {sep}")
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
            raise InputError(f"arc ({t}, {h}) needs a positive finite weight, got {w}")


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
        raise InputError("source and sink must differ")
    _check_graph(graph, source, sink)
    if sink not in _reachable(graph, source):
        raise Unreachable(f"node {sink} cannot be reached from node {source}")
    tails, heads, weights = zip(*graph.arcs)
    ends = np.array((tails, heads))
    # a self-loop's +1 and -1 cancel, so only the other arcs touch a row
    loop = ends[0] == ends[1]
    keep = np.setdiff1d(ends[:, ~loop], [source])  # sorted
    row = np.full(graph.num_nodes, -1)
    row[keep] = np.arange(keep.size)
    # arc by arc, the rows of its +1 and -1, -1 where there is none:
    # A by columns, which tocsr turns into sorted rows
    at = np.where(loop, -1, row[ends]).T
    hit = at >= 0
    A = scipy.sparse.csc_array((np.broadcast_to([1.0, -1.0], at.shape)[hit], at[hit],
                                np.concatenate(([0], np.cumsum(hit.sum(axis=1))))),
                               shape=(keep.size, len(graph.arcs))).tocsr()
    b = np.zeros(keep.size)
    b[row[sink]] = -1.0
    c = np.array(weights)
    return StandardFormLP(A, b, c)
