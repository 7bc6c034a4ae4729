"""Dense two-phase tableau simplex.

Solves ``maximize c @ x`` subject to ``A_ub x <= b_ub``, ``A_eq x = b_eq``,
``0 <= x <= ub`` — the LP relaxations the branch-and-bound solver needs.
The start is a crash basis: every ``<=`` and upper-bound row with a
non-negative rhs starts with its own slack basic, and only the other
rows (equalities, rows negated for a negative rhs) get an artificial.
Phase 1 drives those artificials out of the basis and is skipped when
there are none, which is every program the index advisor emits. Phase 2
optimizes the real objective with Dantzig pricing, switching to Bland's
rule when degeneracy stalls progress (anti-cycling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.ilp.model import CompiledProgram

_TOL = 1e-9


@dataclass
class SimplexResult:
    """Outcome of one LP solve.

    On ``iteration_limit`` (or a ``deadline`` stop) in phase 2 the
    tableau still holds a *feasible* (just not proven-optimal) basic
    solution, so ``x`` and ``objective`` are populated — branch and
    bound uses them to seed a rounding heuristic instead of abandoning
    the node empty-handed. A phase-1 cut (possible only when some row
    needed an artificial) yields no feasible point and leaves ``x`` None.
    """

    # "optimal" | "infeasible" | "unbounded" | "iteration_limit" | "deadline"
    status: str
    x: np.ndarray | None
    objective: float | None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def fix_variables(
    program: CompiledProgram, fixed: dict[int, float]
) -> tuple[CompiledProgram, float, list[int]]:
    """Substitute fixed variables out of ``program``.

    Returns (reduced program, objective offset, kept-column indices).
    Used by branch and bound: fixing a binary to 0/1 shrinks the LP.
    """
    n = program.objective.shape[0]
    keep = [j for j in range(n) if j not in fixed]
    fixed_vec = np.zeros(n)
    for j, value in fixed.items():
        fixed_vec[j] = value

    offset = float(program.objective @ fixed_vec)
    b_ub = program.b_ub - (program.a_ub @ fixed_vec if program.a_ub.size else 0.0)
    b_eq = program.b_eq - (program.a_eq @ fixed_vec if program.a_eq.size else 0.0)

    reduced = CompiledProgram(
        objective=program.objective[keep],
        a_ub=program.a_ub[:, keep] if program.a_ub.size else np.zeros((0, len(keep))),
        b_ub=np.asarray(b_ub, dtype=float).reshape(-1),
        a_eq=program.a_eq[:, keep] if program.a_eq.size else np.zeros((0, len(keep))),
        b_eq=np.asarray(b_eq, dtype=float).reshape(-1),
        upper_bounds=program.upper_bounds[keep],
        integer_mask=program.integer_mask[keep],
    )
    return reduced, offset, keep


class SimplexSolver:
    """Two-phase dense simplex for maximization problems, started from
    the slack basis."""

    def __init__(self, max_iterations: int = 50000, tol: float = _TOL) -> None:
        self._max_iterations = max_iterations
        self._tol = tol

    def solve(
        self,
        program: CompiledProgram,
        stop: "Callable[[], bool] | None" = None,
    ) -> SimplexResult:
        """Solve ``program``; ``stop`` is polled once per pivot.

        When ``stop()`` returns True the solve is abandoned with status
        ``"deadline"``: mid-phase-2 that still yields a feasible point
        (like ``iteration_limit``), mid-phase-1 it yields none; a program
        whose rows all start on their slacks has no phase 1. Branch
        and bound threads its wall-clock deadline through here so one
        long LP cannot overrun the solver deadline unboundedly.
        """
        a_rows, b_rhs, structural_cost, needs_artificial = self._standardize(
            program
        )
        n = program.objective.shape[0]
        m = len(b_rhs)
        if m == 0:
            # Unconstrained over a box: maximize by setting positive-cost
            # vars to their upper bound.
            x = np.where(
                program.objective > 0,
                np.minimum(program.upper_bounds, 1e18),
                0.0,
            )
            if np.any((program.objective > self._tol) & np.isinf(program.upper_bounds)):
                return SimplexResult(status="unbounded", x=None, objective=None)
            return SimplexResult(
                status="optimal", x=x, objective=float(program.objective @ x)
            )

        total_structural = a_rows.shape[1]
        # Crash basis: each row's own slack where it is +1, an
        # artificial elsewhere. Tableau columns: structural (incl.
        # slacks) + artificials + rhs.
        k = needs_artificial.size
        width = total_structural + k
        tableau = np.zeros((m + 1, width + 1))
        tableau[:m, :total_structural] = a_rows
        tableau[needs_artificial, np.arange(total_structural, width)] = 1.0
        tableau[:m, -1] = b_rhs
        basis = n + np.arange(m)
        basis[needs_artificial] = np.arange(total_structural, width)
        basis = basis.tolist()

        if k:
            # Phase 1: minimize sum of artificials == maximize -(sum).
            cost1 = np.zeros(width + 1)
            cost1[total_structural:width] = -1.0
            self._set_objective_row(tableau, basis, cost1)
            status = self._iterate(tableau, basis, allow_columns=width, stop=stop)
            if status != "optimal":
                return SimplexResult(status=status, x=None, objective=None)
            if tableau[-1, -1] < -1e-7:
                return SimplexResult(status="infeasible", x=None, objective=None)
            self._pivot_artificials_out(tableau, basis, total_structural)

        # Phase 2: real objective over structural columns only.
        cost2 = np.zeros(width + 1)
        cost2[:total_structural] = structural_cost
        self._set_objective_row(tableau, basis, cost2)
        status = self._iterate(
            tableau, basis, allow_columns=total_structural, stop=stop
        )
        if status not in ("optimal", "iteration_limit", "deadline"):
            return SimplexResult(status=status, x=None, objective=None)

        # Every phase-2 basis is primal-feasible, so even a solve cut
        # off by the iteration limit yields a usable point.
        x = np.zeros(width)
        for row, var in enumerate(basis):
            x[var] = tableau[row, -1]
        solution = x[:n]
        return SimplexResult(
            status=status,
            x=solution,
            objective=float(structural_cost[:n] @ solution),
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _standardize(
        program: CompiledProgram,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Equality rows with non-negative rhs; slacks appended as columns.

        Returns (rows, rhs, objective padded with zeros for the slacks,
        the rows that need an artificial). Row order: ``<=``
        constraints, one ``x_j <= ub`` row per finite upper bound, then
        ``=`` constraints; every row but the last kind gets a slack
        column. A row needs an artificial when it has no slack (``=``)
        or was negated for a negative rhs, which flips its slack to -1.
        """
        n = program.objective.shape[0]
        bounded = np.flatnonzero(np.isfinite(program.upper_bounds))
        num_ub = program.a_ub.shape[0]
        num_slacks = num_ub + bounded.size
        m = num_slacks + program.a_eq.shape[0]

        full = np.zeros((m, n + num_slacks))
        full[:num_ub, :n] = program.a_ub
        full[np.arange(num_ub, num_slacks), bounded] = 1.0
        full[num_slacks:, :n] = program.a_eq
        slack_rows = np.arange(num_slacks)
        full[slack_rows, n + slack_rows] = 1.0
        rhs = np.concatenate(
            [program.b_ub, program.upper_bounds[bounded], program.b_eq]
        ).astype(float)
        negative = rhs < 0
        full[negative] = -full[negative]
        rhs[negative] = -rhs[negative]
        needs_artificial = negative.copy()
        needs_artificial[num_slacks:] = True

        structural_cost = np.zeros(n + num_slacks)
        structural_cost[:n] = program.objective
        return full, rhs, structural_cost, np.flatnonzero(needs_artificial)

    @staticmethod
    def _set_objective_row(
        tableau: np.ndarray, basis: list[int], cost: np.ndarray
    ) -> None:
        """Reduced-cost row for maximization: z_j - c_j in the last row."""
        m = tableau.shape[0] - 1
        tableau[-1, :] = -cost
        for row in range(m):
            coeff = cost[basis[row]]
            if coeff != 0.0:
                tableau[-1, :] += coeff * tableau[row, :]

    def _iterate(
        self,
        tableau: np.ndarray,
        basis: list[int],
        allow_columns: int,
        stop: "Callable[[], bool] | None" = None,
    ) -> str:
        m = tableau.shape[0] - 1
        stall = 0
        last_objective = tableau[-1, -1]
        for _ in range(self._max_iterations):
            if stop is not None and stop():
                return "deadline"
            reduced = tableau[-1, :allow_columns]
            use_bland = stall > 2 * m + 10
            if use_bland:
                entering = -1
                for j in range(allow_columns):
                    if reduced[j] < -self._tol:
                        entering = j
                        break
            else:
                entering = int(reduced.argmin())
                if reduced[entering] >= -self._tol:
                    entering = -1
            if entering < 0:
                return "optimal"

            column = tableau[:m, entering]
            positive = column > self._tol
            if not positive.any():
                return "unbounded"
            ratios = np.full(m, np.inf)
            np.divide(tableau[:m, -1], column, out=ratios, where=positive)
            leaving = int(ratios.argmin())
            if use_bland:
                best = ratios[leaving]
                candidates = [
                    r for r in range(m) if positive[r] and ratios[r] <= best + self._tol
                ]
                leaving = min(candidates, key=lambda r: basis[r])

            self._pivot(tableau, leaving, entering)
            basis[leaving] = entering

            objective = tableau[-1, -1]
            if objective > last_objective + self._tol:
                stall = 0
                last_objective = objective
            else:
                stall += 1
        return "iteration_limit"

    @staticmethod
    def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
        """Gauss-Jordan step on (row, col) as one rank-1 update.

        Rows whose entry in the pivot column is already (numerically)
        zero are left untouched, not updated with a zero multiple, so
        every element sees the same IEEE operations as a row-by-row
        elimination.
        """
        tableau[row, :] /= tableau[row, col]
        column = tableau[:, col].copy()
        column[row] = 0.0
        rows = np.flatnonzero(np.abs(column) > 1e-13)
        tableau[rows] -= column[rows, None] * tableau[row]

    def _pivot_artificials_out(
        self, tableau: np.ndarray, basis: list[int], total_structural: int
    ) -> None:
        """Replace basic artificials (at zero level) with structural vars."""
        m = tableau.shape[0] - 1
        for row in range(m):
            if basis[row] >= total_structural:
                candidates = np.where(
                    np.abs(tableau[row, :total_structural]) > self._tol
                )[0]
                if candidates.size:
                    col = int(candidates[0])
                    self._pivot(tableau, row, col)
                    basis[row] = col
        # Remaining basic artificials correspond to redundant rows; their
        # columns must never re-enter, which _iterate guarantees by
        # limiting allow_columns.


def check_feasible(
    program: CompiledProgram, x: np.ndarray, tol: float = 1e-6
) -> bool:
    """Verify a point satisfies all constraints and bounds."""
    if np.any(x < -tol):
        return False
    if np.any(x > program.upper_bounds + tol):
        return False
    if program.a_ub.size and np.any(program.a_ub @ x > program.b_ub + tol):
        return False
    if program.a_eq.size and np.any(np.abs(program.a_eq @ x - program.b_eq) > tol):
        return False
    return True
