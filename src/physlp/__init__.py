"""Differentiable linear programming via Physarum dynamics.

The package solves standard-form LPs (min c.x, A x = b, x >= 0) with a
damped Physarum update, differentiates through the unrolled iterations
in reverse mode, and ships builders for bipartite matching, L1 kernel
SVMs, and shortest-path flows, the exact Hungarian and Dijkstra
oracles to check them against, and a JSON file format for LPs.
"""

import importlib

from .autodiff import LpGradients, UnrolledTape, backward, finite_diff_grad, jvp, solve_with_tape
from .core import (SolveResult, SolveStatus, SolverConfig, StandardFormLP, TraceRecord, load_lp,
                   save_lp, validate)
from .solver import (PreparedLP, StepDetail, default_gamma, initial_state, prepare_lp,
                     solve, step_detail)
from . import errors, problems

__version__ = "0.1.0"

__all__ = [
    "StandardFormLP", "SolverConfig", "SolveResult", "SolveStatus", "TraceRecord",
    "validate", "save_lp", "load_lp",
    "PreparedLP", "StepDetail", "prepare_lp",
    "initial_state", "step_detail", "solve", "default_gamma",
    "UnrolledTape", "LpGradients", "solve_with_tape", "backward", "jvp",
    "finite_diff_grad",
    "errors", "oracles", "problems",
]


def __getattr__(name):
    # oracles imports scipy.optimize, for linear_sum_assignment alone,
    # which made up about a third of the import time; it loads on first
    # use of physlp.oracles (PEP 562)
    if name == "oracles":
        return importlib.import_module(f"{__name__}.oracles")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
