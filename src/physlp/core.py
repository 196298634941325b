"""Standard-form LP containers, their validation, and the LP file.

A standard-form program is

    min c.x   subject to   A x = b,  x >= 0.

StandardFormLP holds A in one form, a read-only float64
scipy.sparse.csr_array, converted once from the dense or sparse A it
is given; lp.A.toarray() is a dense copy.  Its operator, the
WeightedOperator the solver computes with, holds that same matrix
(lp.operator.A is lp.A) and is built on the first solve.
StandardFormLP.from_operator builds an LP around an existing operator,
so LPs of one constraint matrix share it and its A, as the assignment
LPs of one shape do.  An LP may carry dual potentials pi, an
m-vector: the solver then works with the reduced cost c - A^T pi,
which has the optimal set of c, as c.x and (c - A^T pi).x differ by
the constant pi.b on every feasible x.  StandardFormLP and
SolverConfig are frozen and validated once, when built;
dataclasses.replace makes a new one, which is validated again and
builds its own operator.  An LP keeps an A, b, c or potentials that is
already read-only, as another LP's is, and copies anything else, so no
later write by the caller reaches it.  save_lp writes an LP to a JSON
file and load_lp reads one.
"""

import json
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse

from .errors import DimensionMismatch, InvalidConfig, NonFiniteEntry
from .linalg import WeightedOperator


def _owned(value):
    """value as a read-only float64 array that no one else can write: a
    read-only ndarray owning its memory is kept, anything else is
    copied.  validate checks its shape."""
    if not (type(value) is np.ndarray and value.dtype == np.float64
            and value.flags.owndata and not value.flags.writeable):
        value = np.array(value, dtype=np.float64)
        value.flags.writeable = False
    return value


def _owned_csr(value):
    """value, dense or sparse, as a read-only float64 csr_array with
    sorted indices and no stored zeros, after the checks of its shape:
    a csr_array whose arrays are read-only, as an LP's A, is kept, and
    anything else is converted into new arrays."""
    if not scipy.sparse.issparse(value):
        value = np.asarray(value, dtype=np.float64)
    if value.ndim != 2 or min(value.shape) < 1:
        raise DimensionMismatch(f"A must be 2-D with m >= 1 and n >= 1, got shape {value.shape}")
    if type(value) is scipy.sparse.csr_array and value.dtype == np.float64 and not any(
            arr.flags.writeable for arr in (value.data, value.indices, value.indptr)):
        return value
    A = scipy.sparse.csr_array(value, dtype=np.float64, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    for arr in (A.data, A.indices, A.indptr):
        arr.flags.writeable = False
    return A


@dataclass(frozen=True, eq=False)
class StandardFormLP:
    """min c.x s.t. A x = b, x >= 0.

    A is a read-only float64 scipy.sparse.csr_array, given dense or
    sparse; b, c and potentials, when set, are read-only float64
    arrays.  The LP owns them all (see the module docstring).
    potentials, None or an m-vector pi, turn the working cost into the
    reduced cost c - A^T pi, which solver.prepare_lp requires to be
    nonnegative: an LP with a negative cost needs them.  Two LPs are
    equal only when they are the same object, which is also what they
    hash by, so an LP can key a dict.
    """

    A: scipy.sparse.csr_array
    b: np.ndarray
    c: np.ndarray
    potentials: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", _owned_csr(self.A))
        for name in ("b", "c", "potentials"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _owned(value))
        validate(self)

    @classmethod
    def from_operator(cls, op, b, c, potentials=None):
        """The LP of b, c and the constraint matrix of the
        WeightedOperator op, validated like any other.  When op.A is
        read-only, as an LP's operator's is, the LP's A is op.A and its
        operator op, so no solve rebuilds it; otherwise the LP copies
        op.A and builds its own operator from the copy."""
        lp = cls(op.A, b, c, potentials)
        if lp.A is op.A:
            object.__setattr__(lp, "operator", op)
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
        """The linalg.WeightedOperator of A, holding A itself, built on
        first use unless from_operator gave it."""
        return WeightedOperator(self.A)


# Each entry of the Gram map Q (linalg.WeightedOperator) is a product
# of two entries of one column of A, so an entry above this overflows Q
A_MAX = float(np.sqrt(np.finfo(np.float64).max))


def validate(lp):
    """Check that b, c and potentials, when set, fit the shape of A,
    that b, c and potentials are finite, and that every entry of A.data
    (every nonzero of the CSR A, NaN included) is finite and at most
    A_MAX, about 1.34e154, in magnitude; returns the same instance
    unchanged.  StandardFormLP calls it once, when built, after it has
    checked the shape of A.

    Raises DimensionMismatch or NonFiniteEntry.  Idempotent.
    """
    m, n = lp.A.shape
    vectors = [(lp.b, "b", m), (lp.c, "c", n)]
    if lp.potentials is not None:
        vectors.append((lp.potentials, "potentials", m))
    for arr, name, size in vectors:
        if arr.shape != (size,):
            raise DimensionMismatch(f"{name} has shape {arr.shape}, expected ({size},)")
    # NaN fails the comparison too
    if not np.all(np.abs(lp.A.data) <= A_MAX):
        raise NonFiniteEntry(f"A contains a non-finite entry or one above {A_MAX:.4g},"
                             " whose square overflows")
    for arr, name, _ in vectors:
        if not np.all(np.isfinite(arr)):
            raise NonFiniteEntry(f"{name} contains a non-finite entry")
    return lp


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    LINSOLVE_FAILURE = "linsolve_failure"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the dynamics loop.

    max_iters    number of update steps K (0 returns the initial point)
    step_size    h in (0, 1]; h = 1 replaces the iterate by the proposal
    linsolve_tol in (0, 1); relative target of the backward and jvp
                 solves (at most autodiff.CG_ADJOINT_TOL on CG steps),
                 and the floor of solver.forward_tol, the target of a
                 forward step, which the forward loop of solve,
                 solve_with_tape and match-bench derives from each
                 iterate's residual.
                 This is the one default target: spd_solve and
                 step_detail take theirs from the caller.  spd_solve
                 accepts every solve on normwise backward error at its
                 target
    seed         integer >= 0; seeds the random initial iterate when x0
                 is not given

    No field takes a bool.  What no caller varies is a constant of
    solver, not a field: the feasibility tolerance of the stop test,
    RESIDUAL_TOL; the clamp floor eps = CLAMP_FLOOR = 1e-8, below which
    no iterate entry falls; and the value zero costs are raised to,
    default_gamma(m, n) = 1 / (2 sqrt(m + n)).
    """

    max_iters: int = 10
    step_size: float = 1.0
    linsolve_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        # True == 1 would pass every test below: max_iters=True would run one step
        for name, value in vars(self).items():
            if isinstance(value, (bool, np.bool_)):
                raise InvalidConfig(f"{name} must be a number, not the bool {value!r}")
        # numbers.Integral takes numpy integers too, and rejects 2.5
        for name in ("max_iters", "seed"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 0):
                raise InvalidConfig(f"{name} must be an integer >= 0, got {value!r}")
        if not 0.0 < self.step_size <= 1.0:
            raise InvalidConfig(f"step_size must lie in (0, 1], got {self.step_size}")
        # a target of 1 or more is met by p = 0 before any CG iteration;
        # the chained test also rejects NaN and inf
        if not 0.0 < self.linsolve_tol < 1.0:
            raise InvalidConfig(f"linsolve_tol must lie in (0, 1), got {self.linsolve_tol}")


@dataclass
class TraceRecord:
    """One row of the per-iteration trace."""

    iteration: int
    objective: float
    residual: float
    linsolve_iterations: int


@dataclass(eq=False)
class SolveResult:
    """Solver output.  objective is c.x against the LP's own cost
    vector, whatever potentials or zero-cost perturbation the solve
    worked with."""

    x: np.ndarray
    objective: float
    residual: float
    trace: list = field(default_factory=list)
    status: SolveStatus = SolveStatus.MAX_ITERS


def save_lp(lp, path):
    """Write lp to the JSON file at path, the one LP file format: keys
    A, b, c and, when set, potentials, sorted, with an indent of 2.  A
    is written dense, row by row."""
    d = {"A": lp.A.toarray().tolist(), "b": lp.b.tolist(), "c": lp.c.tolist()}
    if lp.potentials is not None:
        d["potentials"] = lp.potentials.tolist()
    with open(path, "w") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_lp(path):
    """The StandardFormLP of the JSON file at path, as save_lp writes
    it.  Raises KeyError when A, b or c is missing.  Unknown keys are
    ignored, among them the column names and the box bound that earlier
    versions wrote."""
    with open(path) as fh:
        d = json.load(fh)
    for key in ("A", "b", "c"):
        if key not in d:
            raise KeyError(f"LP file is missing required key {key!r}")
    return StandardFormLP(d["A"], d["b"], d["c"], d.get("potentials"))
