"""Standard-form LP containers, validation, and evaluation helpers.

A standard-form program is

    min c.x   subject to   A x = b,  x >= 0,

with A stored densely as an (m, n) array; the public API takes and
returns A in that form.  The solver computes with a CSR copy of A,
StandardFormLP.operator, built on first use.  Instances are plain
dataclasses; treat them as immutable after construction.
"""

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NonFiniteEntry
from .linalg import WeightedOperator


def _as_matrix(A):
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionMismatch(f"A must be 2-D, got ndim={A.ndim}")
    return A


def _as_vector(v, name):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got ndim={v.ndim}")
    return v


@dataclass
class StandardFormLP:
    """min c.x s.t. A x = b, x >= 0.

    names optionally labels the columns.  box_bound, when set, promises
    that every feasible point satisfies x_i <= box_bound componentwise;
    it is required before negative-cost coordinates can be flipped.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    names: list | None = None
    box_bound: float | None = None

    def __post_init__(self):
        self.A = _as_matrix(self.A)
        self.b = _as_vector(self.b, "b")
        self.c = _as_vector(self.c, "c")
        validate(self)

    @property
    def m(self):
        """Number of equality constraints."""
        return self.A.shape[0]

    @property
    def n(self):
        """Number of variables."""
        return self.A.shape[1]

    @cached_property
    def operator(self):
        """The linalg.WeightedOperator of A (a CSR copy), built on first use."""
        return WeightedOperator(self.A)


def validate(lp):
    """Check shapes and finiteness; returns the same instance unchanged.

    Raises DimensionMismatch or NonFiniteEntry.  Idempotent.
    """
    m, n = lp.A.shape
    if m < 1 or n < 1:
        raise DimensionMismatch(f"LP must have m >= 1 and n >= 1, got A shape {lp.A.shape}")
    if lp.b.shape != (m,):
        raise DimensionMismatch(f"b has shape {lp.b.shape}, expected ({m},)")
    if lp.c.shape != (n,):
        raise DimensionMismatch(f"c has shape {lp.c.shape}, expected ({n},)")
    if lp.names is not None and len(lp.names) != n:
        raise DimensionMismatch(f"names has length {len(lp.names)}, expected {n}")
    for arr, name in ((lp.A, "A"), (lp.b, "b"), (lp.c, "c")):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteEntry(f"{name} contains a non-finite entry")
    return lp


def objective(lp, x):
    """c.x against the stored (original) cost vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (lp.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({lp.n},)")
    return float(lp.c @ x)


def feasibility_residual(lp, x):
    """Euclidean norm of the equality violation ||A x - b||_2."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (lp.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({lp.n},)")
    return float(np.linalg.norm(lp.A @ x - lp.b))


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    LINSOLVE_FAILURE = "linsolve_failure"


@dataclass
class SolverConfig:
    """Knobs for the dynamics loop.

    max_iters    number of update steps K (0 returns the initial point)
    step_size    h in (0, 1]; h = 1 replaces the iterate by the proposal
    clamp_floor  eps > 0; iterates are clamped to stay >= eps
    gamma        perturbation added to zero costs; None picks
                 1 / (2 sqrt(m + n)) per instance, 0 forbids zero costs
    linsolve_tol relative residual target for the inner SPD solves
    linsolve_reg Tikhonov term added to A W A^T; None scales
                 1e-10 * trace / m per solve
    residual_tol feasibility tolerance used for early stopping and the
                 converged status
    seed         seeds the random initial iterate when x0 is not given
    """

    max_iters: int = 10
    step_size: float = 1.0
    clamp_floor: float = 1e-8
    gamma: float | None = None
    linsolve_tol: float = 1e-10
    linsolve_reg: float | None = None
    residual_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not 0.0 < self.step_size <= 1.0:
            raise ValueError(f"step_size must lie in (0, 1], got {self.step_size}")
        if self.clamp_floor <= 0.0:
            raise ValueError(f"clamp_floor must be positive, got {self.clamp_floor}")
        if self.gamma is not None and self.gamma < 0.0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.linsolve_tol <= 0.0:
            raise ValueError(f"linsolve_tol must be positive, got {self.linsolve_tol}")
        if self.linsolve_reg is not None and self.linsolve_reg < 0.0:
            raise ValueError(f"linsolve_reg must be non-negative, got {self.linsolve_reg}")
        if self.residual_tol <= 0.0:
            raise ValueError(f"residual_tol must be positive, got {self.residual_tol}")


@dataclass
class TraceRecord:
    """One row of the per-iteration trace."""

    iteration: int
    objective: float
    residual: float
    linsolve_iterations: int


@dataclass
class SolveResult:
    """Solver output.  x and objective are reported in the original
    coordinates against the original cost vector, regardless of any
    internal perturbation or flipping."""

    x: np.ndarray
    objective: float
    residual: float
    trace: list = field(default_factory=list)
    status: SolveStatus = SolveStatus.MAX_ITERS


def lp_to_dict(lp):
    """Plain-dict form of an LP for JSON serialization."""
    d = {"A": lp.A.tolist(), "b": lp.b.tolist(), "c": lp.c.tolist()}
    if lp.names is not None:
        d["names"] = list(lp.names)
    if lp.box_bound is not None:
        d["box_bound"] = float(lp.box_bound)
    return d


def lp_from_dict(d):
    """Inverse of lp_to_dict.  Unknown keys are ignored."""
    for key in ("A", "b", "c"):
        if key not in d:
            raise KeyError(f"LP dict is missing required key {key!r}")
    names = d.get("names")
    bound = d.get("box_bound")
    return StandardFormLP(d["A"], d["b"], d["c"], names=names,
                          box_bound=None if bound is None else float(bound))


def save_lp(lp, path):
    with open(path, "w") as fh:
        json.dump(lp_to_dict(lp), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_lp(path):
    with open(path) as fh:
        return lp_from_dict(json.load(fh))
