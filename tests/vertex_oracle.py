"""Brute-force reference optimum of small standard-form LPs.

The tests check the dynamics against it: enumerate_vertices walks every
basis, shares no code with the solver, and is exact up to the
tolerances below.  Only the tests use it, so it lives here and not in
physlp.oracles.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from physlp.errors import PhyslpError

# guard rails for enumerate_vertices
MAX_COLUMNS = 24
MAX_BASES = 200_000
# two basic solutions closer than this (max-norm) count as one vertex
POINT_TOL = 1e-7
# objective gap under which an optimum is considered non-unique
UNIQUE_GAP = 1e-9
# a basic solution with no entry below -FEAS_TOL counts as feasible
FEAS_TOL = 1e-9


class TooLarge(PhyslpError):
    """Instance exceeds the guard rails of a brute-force oracle."""


class InfeasibleDetected(PhyslpError):
    """No nonnegative basic solution exists."""


@dataclass(eq=False)
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


def enumerate_vertices(lp):
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

    A = lp.A.toarray()
    bnorm = float(np.linalg.norm(lp.b))
    skipped = 0
    found = []  # (objective, basis, x)
    for basis in combinations(range(n), m):
        A_B = A[:, basis]
        try:
            x_B = np.linalg.solve(A_B, lp.b)
        except np.linalg.LinAlgError:
            skipped += 1
            continue
        if not np.all(np.isfinite(x_B)) or \
                np.linalg.norm(A_B @ x_B - lp.b) > 1e-9 * (1.0 + bnorm):
            skipped += 1
            continue
        if np.min(x_B) < -FEAS_TOL:
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
