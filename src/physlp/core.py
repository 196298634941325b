"""Standard-form LP containers, validation, and evaluation helpers.

A standard-form program is

    min c.x   subject to   A x = b,  x >= 0,

with A stored densely as an (m, n) array; the public API takes and
returns A in that form.  The solver computes with a CSR copy of A,
StandardFormLP.operator, built on the first solve and reused by every
later one.  StandardFormLP.from_operator builds an LP around an
operator that already exists, so LPs of one constraint matrix can
share it: problems.build_matching_lp does so for every assignment LP
of one shape.  An LP holds A, b and c as read-only float64 views, not
copies, of the arrays it is given; assigning a new A drops that LP's
operator and leaves the others alone.  A write into an array that was
passed in goes unseen by an operator already built, so give an LP new
arrays rather than change them in place.
"""

import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, NonFiniteEntry
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

    def __setattr__(self, name, value):
        if name in ("A", "b", "c"):
            value = (_as_matrix(value) if name == "A" else _as_vector(value, name)).view()
            value.flags.writeable = False
            if name == "A":
                self.__dict__.pop("operator", None)
        super().__setattr__(name, value)

    def __post_init__(self):
        validate(self)

    @classmethod
    def from_operator(cls, op, b, c, names=None, box_bound=None):
        """The LP with the constraint matrix of the WeightedOperator op,
        whose operator is op itself, so no solve rebuilds it.

        A is op.A.toarray(), bit-equal to the A that op was built from,
        and the LP is validated like any other.  LPs built from one op
        share it; each still holds its own A, b, c and names.
        """
        lp = cls(op.A.toarray(), b, c, names=names, box_bound=box_bound)
        lp.operator = op
        return lp

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
        """The linalg.WeightedOperator of A (a CSR copy), built on first use
        and again after A is assigned, unless from_operator gave it."""
        return WeightedOperator(self.A)


def validate(lp):
    """Check shapes, finiteness and box_bound; returns the same instance
    unchanged.

    Raises DimensionMismatch, NonFiniteEntry, or InvalidConfig for a
    box_bound that is set and not positive.  Idempotent.
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
    bound = lp.box_bound
    if bound is not None:
        if not math.isfinite(bound):
            raise NonFiniteEntry(f"box_bound must be finite, got {bound}")
        if not bound > 0.0:
            raise InvalidConfig(f"box_bound must be positive, got {bound}")
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
    linsolve_tol tolerance of the backward and jvp solves (at most
                 autodiff.CG_ADJOINT_TOL on CG steps); in forward
                 steps the floor of the tolerance solver.forward_tol,
                 which the forward loop of solve, solve_with_tape and
                 match-bench derives from each iterate's residual.
                 spd_solve accepts every solve on normwise backward
                 error at its tolerance
    residual_tol feasibility tolerance of the stop test, with a stalled
                 objective; CONVERGED means the test held at the end
    seed         integer >= 0; seeds the random initial iterate when x0
                 is not given
    """

    max_iters: int = 10
    step_size: float = 1.0
    clamp_floor: float = 1e-8
    gamma: float | None = None
    linsolve_tol: float = 1e-10
    residual_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        # numbers.Integral takes numpy integers too, and rejects 2.5
        for name in ("max_iters", "seed"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 0):
                raise InvalidConfig(f"{name} must be an integer >= 0, got {value!r}")
        if not 0.0 < self.step_size <= 1.0:
            raise InvalidConfig(f"step_size must lie in (0, 1], got {self.step_size}")
        # "not x > 0" rejects NaN, which "x <= 0" lets through; isfinite rejects inf
        for name in ("clamp_floor", "linsolve_tol", "residual_tol"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidConfig(f"{name} must be positive and finite, got {value}")
        if self.gamma is not None and not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise InvalidConfig(f"gamma must be non-negative and finite, got {self.gamma}")


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
