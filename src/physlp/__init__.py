"""Differentiable linear programming via Physarum dynamics.

The package solves standard-form LPs (min c.x, A x = b, x >= 0) with a
damped Physarum update, differentiates through the unrolled iterations
in reverse mode, and ships builders for bipartite matching, L1 kernel
SVMs, and shortest-path flows plus exact oracles to check against.
"""

from .autodiff import (LpGradients, UnrolledTape, backward, finite_diff_grad,
                       jvp, objective_gradients, solve_with_tape)
from .core import (SolveResult, SolveStatus, SolverConfig, StandardFormLP,
                   TraceRecord, feasibility_residual, load_lp, lp_from_dict,
                   lp_to_dict, objective, save_lp, validate)
from .linalg import (SpdSolveReport, default_regularization, spd_solve,
                     spd_solve_adjoint)
from .solver import (PreparedLP, StepDetail, default_gamma, flip_negative_costs,
                     initial_state, perturb_cost, prepare_lp, solve, step_detail)
from . import errors, oracles, problems

__version__ = "0.1.0"

__all__ = [
    "StandardFormLP", "SolverConfig", "SolveResult", "SolveStatus", "TraceRecord",
    "validate", "objective", "feasibility_residual",
    "lp_to_dict", "lp_from_dict", "save_lp", "load_lp",
    "SpdSolveReport", "spd_solve", "spd_solve_adjoint", "default_regularization",
    "PreparedLP", "StepDetail", "perturb_cost", "flip_negative_costs",
    "prepare_lp", "initial_state", "step_detail", "solve", "default_gamma",
    "UnrolledTape", "LpGradients", "solve_with_tape", "backward", "jvp",
    "objective_gradients", "finite_diff_grad",
    "errors", "oracles", "problems",
]
