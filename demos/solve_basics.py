"""
Solving a standard-form LP with the Physarum update
====================================================

min c.x  s.t.  A x = b, x >= 0.  The iterate starts anywhere positive
(even infeasible) and is pulled onto the constraint set by the first
full step.
"""

import numpy as np

from physlp import SolverConfig, StandardFormLP, solve

# min x1 + 2 x2  on the segment x1 + x2 = 1: optimum is (1, 0)
lp = StandardFormLP(A=np.array([[1.0, 1.0]]),
                    b=np.array([1.0]),
                    c=np.array([1.0, 2.0]))

res = solve(lp, SolverConfig(max_iters=100))
print("x       =", np.round(res.x, 6))
print("objective =", round(res.objective, 6))
print("residual  =", res.residual)
print("status    =", res.status.name)

# the trace records one row per iteration; feasibility is reached
# immediately, the objective then drifts to the cheap vertex
for r in res.trace[:5]:
    print(f"  iter {r.iteration}: obj={r.objective:.4f} residual={r.residual:.1e}")
print(f"  ... {len(res.trace)} iterations total")

# a negative cost needs dual potentials pi: the solver runs on the
# reduced cost c - A^T pi = (1, -1) + 2 = (3, 1), which on the feasible
# set differs from c.x by the constant pi.b = -2, so it has the same
# optimum; the reported objective is c.x itself
lp_neg = StandardFormLP(A=np.array([[1.0, 1.0]]),
                        b=np.array([1.0]),
                        c=np.array([1.0, -1.0]),
                        potentials=np.array([-2.0]))
res = solve(lp_neg, SolverConfig(max_iters=100))
print("\nwith c = (1, -1):")
print("x       =", np.round(res.x, 6))
print("objective =", round(res.objective, 6), "(target -1 at x = (0, 1))")
