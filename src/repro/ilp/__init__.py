"""Integer linear programming substrate.

The paper solves index selection "using standard off-the-shelf
combinatorial solvers"; this package is that solver, built from scratch:
a dense two-phase simplex for LP relaxations and a best-first
branch-and-bound for mixed binary programs. The test suite checks both
against scipy (``linprog`` and HiGHS through ``milp``).
"""

from repro.ilp.model import Constraint, LinearProgram, Sense, Variable
from repro.ilp.branch_bound import BranchAndBoundSolver, solve_milp
from repro.ilp.simplex import SimplexResult, SimplexSolver
from repro.ilp.solution import MilpSolution

__all__ = [
    "BranchAndBoundSolver",
    "Constraint",
    "LinearProgram",
    "MilpSolution",
    "Sense",
    "SimplexResult",
    "SimplexSolver",
    "Variable",
    "solve_milp",
]
