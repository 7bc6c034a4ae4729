"""Best-first branch-and-bound over the simplex LP relaxation.

Nodes are subproblems with some integer variables fixed; the priority
queue explores the best LP bound first, an LP-rounding heuristic seeds
the incumbent, and subtrees whose bound cannot beat the incumbent are
pruned. Exact for the binary programs the index advisor emits; the
test suite checks it against HiGHS (``scipy.optimize.milp``).

Bounded-time harness: the solver is built to come back with its best
integer incumbent rather than an opaque error whenever the search is
cut short — by the node limit, by a per-solve ``deadline_seconds``, or
by the simplex iteration limit inside a node (the LP's feasible point
then seeds the rounding heuristic). Only when *no* incumbent exists
does a cut-short solve raise :class:`~repro.errors.SolverError`, and
the message says exactly which limit hit. The ``solver.iterate`` fault
point fires once per node expansion.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.ilp.model import CompiledProgram, LinearProgram
from repro.ilp.simplex import SimplexSolver, check_feasible, fix_variables
from repro.ilp.solution import MilpSolution
from repro.resilience import faults

_INT_TOL = 1e-6

# Absolute slack under which a node's bound cannot beat the incumbent.
_GAP_TOLERANCE = 1e-6


@dataclass(order=True)
class _Node:
    priority: float  # negative LP bound (heapq pops smallest)
    sequence: int
    fixed: dict[int, float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.fixed is None:
            self.fixed = {}


class BranchAndBoundSolver:
    """Exact MILP solver for maximization programs with binary integers."""

    def __init__(
        self,
        max_nodes: int = 50000,
        deadline_seconds: float | None = None,
    ) -> None:
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise SolverError("deadline_seconds must be positive")
        self._max_nodes = max_nodes
        self._deadline = deadline_seconds
        self._simplex = SimplexSolver()

    # ------------------------------------------------------------------

    def solve(self, program: LinearProgram) -> MilpSolution:
        compiled = program.compile()
        counter = itertools.count()
        root = _Node(priority=-math.inf, sequence=next(counter), fixed={})
        heap: list[_Node] = [root]

        best_x: np.ndarray | None = None
        best_objective = -math.inf
        best_bound = math.inf
        nodes = 0
        limited = 0
        deadline_hit = False
        started = time.monotonic()
        stop = None
        if self._deadline is not None:
            deadline_at = started + self._deadline
            stop = lambda: time.monotonic() > deadline_at  # noqa: E731

        while heap and nodes < self._max_nodes:
            if stop is not None and stop():
                deadline_hit = True
                break
            node = heapq.heappop(heap)
            node_bound = -node.priority
            if node_bound <= best_objective + _GAP_TOLERANCE:
                continue  # cannot improve
            nodes += 1
            faults.check("solver.iterate", f"node {nodes}")

            reduced, offset, keep = fix_variables(compiled, node.fixed)
            # Only thread the stop callable when a deadline is armed, so
            # injected simplex doubles with the plain signature keep
            # working.
            if stop is None:
                result = self._simplex.solve(reduced)
            else:
                result = self._simplex.solve(reduced, stop=stop)
            if result.status == "deadline":
                # The deadline fired mid-LP. A phase-2 cut still yields
                # a feasible relaxation point — salvage an incumbent
                # from it before stopping, exactly like iteration_limit.
                deadline_hit = True
                if result.x is not None:
                    x_full = self._expand(compiled, node.fixed, keep, result.x)
                    rounded = self._round_heuristic(compiled, x_full)
                    if rounded is not None:
                        value = float(compiled.objective @ rounded)
                        if value > best_objective:
                            best_objective = value
                            best_x = rounded
                break
            if result.status == "infeasible":
                continue
            if result.status == "unbounded":
                return MilpSolution(
                    status="infeasible" if node.fixed else "node_limit",
                    objective=None,
                    nodes_explored=nodes,
                )
            if result.status == "iteration_limit":
                # The LP was cut short but its basis is still feasible:
                # try to salvage an incumbent from it rather than
                # discarding the node outright. Its objective is not a
                # valid upper bound, so we never branch or prune on it.
                limited += 1
                if result.x is not None:
                    x_full = self._expand(compiled, node.fixed, keep, result.x)
                    rounded = self._round_heuristic(compiled, x_full)
                    if rounded is not None:
                        value = float(compiled.objective @ rounded)
                        if value > best_objective:
                            best_objective = value
                            best_x = rounded
                continue
            if not result.is_optimal:
                continue
            bound = offset + (result.objective or 0.0)
            if nodes == 1:
                best_bound = bound
            if bound <= best_objective + _GAP_TOLERANCE:
                continue

            x_full = self._expand(compiled, node.fixed, keep, result.x)
            fractional = self._most_fractional(compiled, x_full, node.fixed)
            if fractional is None:
                # Integral: new incumbent.
                if bound > best_objective:
                    best_objective = bound
                    best_x = x_full
                continue

            # Rounding heuristic to tighten the incumbent early.
            rounded = self._round_heuristic(compiled, x_full)
            if rounded is not None:
                value = float(compiled.objective @ rounded)
                if value > best_objective:
                    best_objective = value
                    best_x = rounded

            for branch_value in (1.0, 0.0):
                child_fixed = dict(node.fixed)
                child_fixed[fractional] = branch_value
                heapq.heappush(
                    heap,
                    _Node(
                        priority=-bound,
                        sequence=next(counter),
                        fixed=child_fixed,
                    ),
                )

        if best_x is None:
            if limited:
                raise SolverError(
                    f"simplex iteration limit hit in {limited} node(s) and no "
                    "integer incumbent was found; raise max_iterations or use "
                    "the greedy fallback"
                )
            if deadline_hit:
                raise SolverError(
                    f"solver deadline ({self._deadline:.3g}s) expired after "
                    f"{nodes} nodes with no integer incumbent"
                )
            status = "infeasible" if not heap else "node_limit"
            return MilpSolution(status=status, objective=None, nodes_explored=nodes)
        # Any cut-short search (node limit with work left, deadline, or a
        # simplex iteration limit inside any node) forfeits the
        # optimality proof: the incumbent is returned as "feasible".
        cut_short = (
            (bool(heap) and nodes >= self._max_nodes)
            or limited > 0
            or deadline_hit
        )
        status = "feasible" if cut_short else "optimal"
        gap = max(0.0, best_bound - best_objective)
        return MilpSolution(
            status=status,
            objective=best_objective,
            values={
                var.name: float(best_x[var.index]) for var in program.variables
            },
            nodes_explored=nodes,
            gap=gap,
        )

    @staticmethod
    def _expand(
        compiled: CompiledProgram,
        fixed: dict[int, float],
        keep: list[int],
        reduced_x: np.ndarray | None,
    ) -> np.ndarray:
        n = compiled.objective.shape[0]
        x = np.zeros(n)
        for idx, value in fixed.items():
            x[idx] = value
        if reduced_x is not None:
            for position, idx in enumerate(keep):
                x[idx] = reduced_x[position]
        return x

    @staticmethod
    def _most_fractional(
        compiled: CompiledProgram, x: np.ndarray, fixed: dict[int, float]
    ) -> int | None:
        best_idx: int | None = None
        best_dist = _INT_TOL
        for idx in np.where(compiled.integer_mask)[0]:
            if int(idx) in fixed:
                continue
            frac = abs(x[idx] - round(x[idx]))
            if frac > best_dist:
                best_dist = frac
                best_idx = int(idx)
        return best_idx

    @staticmethod
    def _round_heuristic(
        compiled: CompiledProgram, x: np.ndarray
    ) -> np.ndarray | None:
        rounded = x.copy()
        mask = compiled.integer_mask
        rounded[mask] = np.round(rounded[mask])
        if check_feasible(compiled, rounded):
            return rounded
        # Try rounding fractionals down (safe for <=-dominated programs).
        floored = x.copy()
        floored[mask] = np.floor(floored[mask] + _INT_TOL)
        if check_feasible(compiled, floored):
            return floored
        return None


def solve_milp(program: LinearProgram) -> MilpSolution:
    """Convenience wrapper: solve ``program`` and return its solution."""
    return BranchAndBoundSolver().solve(program)
