"""Differentiable linear programming via Physarum dynamics.

The package solves standard-form LPs (min c.x, A x = b, x >= 0) with a
damped Physarum update, differentiates through the unrolled iterations
in reverse mode, and ships builders for bipartite matching, L1 kernel
SVMs, and shortest-path flows, the exact Hungarian and Dijkstra
oracles to check them against, and a JSON file format for LPs.
Every array argument whose shape the function knows passes one check,
core.checked_array, which raises errors.DimensionMismatch or
errors.NonFiniteEntry; an LP's entries are also held to core.A_MAX in
magnitude.  Importing physlp leaves scipy.optimize unloaded until the
first oracles.hungarian call.  The namespace holds what a caller of the
layer needs; the step machinery behind solve, solve_with_tape,
backward and jvp (prepare_lp, initial_state, step_detail, StepDetail)
stays in physlp.solver, and validate in physlp.core.
"""

from .autodiff import LpGradients, UnrolledTape, backward, finite_diff_grad, jvp, solve_with_tape
from .core import (SolveResult, SolveStatus, SolverConfig, StandardFormLP, TraceRecord, load_lp,
                   save_lp)
from .solver import solve
from . import errors, oracles, problems

__version__ = "0.1.0"

__all__ = [
    "StandardFormLP", "SolverConfig", "SolveResult", "SolveStatus", "TraceRecord",
    "save_lp", "load_lp", "solve",
    "UnrolledTape", "LpGradients", "solve_with_tape", "backward", "jvp",
    "finite_diff_grad",
    "errors", "oracles", "problems",
]
