"""Branch-and-bound MILP tests, cross-checked against scipy's HiGHS."""

import itertools

import pytest

from repro.errors import SolverError
from repro.ilp.branch_bound import BranchAndBoundSolver, solve_milp
from repro.ilp.model import LinearProgram, Sense

from tests.reference import highs_solve


def knapsack(values, sizes, capacity) -> LinearProgram:
    lp = LinearProgram()
    variables = [
        lp.add_binary(f"x{i}", objective=v) for i, v in enumerate(values)
    ]
    lp.add_constraint(
        {variables[i]: sizes[i] for i in range(len(sizes))}, Sense.LE, capacity
    )
    return lp


def brute_force_knapsack(values, sizes, capacity) -> float:
    best = 0.0
    n = len(values)
    for mask in itertools.product([0, 1], repeat=n):
        size = sum(s * m for s, m in zip(sizes, mask))
        if size <= capacity:
            best = max(best, sum(v * m for v, m in zip(values, mask)))
    return best


class TestKnapsacks:
    @pytest.mark.parametrize("seed", range(10))
    def test_optimal_vs_brute_force(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(3, 12)
        values = [rng.randint(1, 30) for _ in range(n)]
        sizes = [rng.randint(1, 15) for _ in range(n)]
        capacity = rng.randint(5, 40)

        solution = solve_milp(knapsack(values, sizes, capacity))
        expected = brute_force_knapsack(values, sizes, capacity)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(expected)

    def test_selected_helper(self):
        lp = knapsack([10, 1], [1, 1], 1)
        solution = solve_milp(lp)
        assert solution.selected(lp) == ["x0"]

    def test_zero_capacity(self):
        solution = solve_milp(knapsack([5, 5], [1, 1], 0))
        assert solution.objective == pytest.approx(0.0)


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_binary_programs(self, seed):
        import random

        rng = random.Random(100 + seed)
        n = rng.randint(3, 10)
        lp = LinearProgram()
        variables = [
            lp.add_binary(f"v{i}", objective=rng.randint(1, 20)) for i in range(n)
        ]
        lp.add_constraint(
            {v: rng.randint(1, 8) for v in variables}, Sense.LE, rng.randint(4, 25)
        )
        if n >= 4:
            # Mutual exclusion and implication side constraints.
            lp.add_constraint({variables[0]: 1, variables[1]: 1}, Sense.LE, 1)
            lp.add_constraint({variables[2]: 1, variables[3]: -1}, Sense.LE, 0)

        ours = solve_milp(lp)
        scipy_solution = highs_solve(lp)
        assert ours.has_solution == scipy_solution.has_solution
        if ours.has_solution:
            assert ours.objective == pytest.approx(scipy_solution.objective)

    def test_mixed_integer_continuous(self):
        lp = LinearProgram()
        x = lp.add_binary("x", objective=10.0)
        y = lp.add_variable("y", upper_bound=3.0, objective=1.0)
        lp.add_constraint({x: 5.0, y: 1.0}, Sense.LE, 6.0)
        ours = solve_milp(lp)
        theirs = highs_solve(lp)
        assert ours.objective == pytest.approx(theirs.objective)
        assert ours.objective == pytest.approx(11.0)  # x=1, y=1


class TestEdgeCases:
    def test_infeasible_program(self):
        lp = LinearProgram()
        x = lp.add_binary("x", objective=1.0)
        lp.add_constraint({x: 1.0}, Sense.GE, 2.0)
        assert solve_milp(lp).status == "infeasible"

    def test_equality_forcing(self):
        lp = LinearProgram()
        x = lp.add_binary("x", objective=-5.0)
        lp.add_constraint({x: 1.0}, Sense.EQ, 1.0)
        solution = solve_milp(lp)
        assert solution.value("x") == pytest.approx(1.0)
        assert solution.objective == pytest.approx(-5.0)

    def test_node_limit_degrades_gracefully(self):
        import random

        rng = random.Random(0)
        n = 25
        lp = LinearProgram()
        variables = [
            lp.add_binary(f"v{i}", objective=rng.uniform(1, 2)) for i in range(n)
        ]
        lp.add_constraint({v: 1.0 for v in variables}, Sense.LE, n // 2)
        solver = BranchAndBoundSolver(max_nodes=3)
        solution = solver.solve(lp)
        # May or may not prove optimality in 3 nodes, but must not crash
        # and must return a feasible answer if it claims one.
        if solution.has_solution:
            assert solution.objective > 0

    def test_missing_value_lookup(self):
        lp = knapsack([1], [1], 1)
        solution = solve_milp(lp)
        with pytest.raises(SolverError):
            solution.value("zzz")

    def test_nodes_counted(self):
        solution = solve_milp(knapsack([10, 13, 7, 11], [5, 6, 4, 5], 10))
        assert solution.nodes_explored >= 1
        assert solution.gap <= 1e-6 + abs(solution.objective)


class _FakeClock:
    """Deterministic monotonic(): 0.0 for the first ``fire_at`` calls,
    then a huge value forever — a deadline that fires at an exact,
    repeatable call index instead of a wall-clock race."""

    def __init__(self, fire_at: float = float("inf")) -> None:
        self.fire_at = fire_at
        self.calls = 0

    def monotonic(self) -> float:
        self.calls += 1
        return 1e9 if self.calls > self.fire_at else 0.0


class TestDeadlineMidNode:
    """The deadline must interrupt the simplex loop *inside* a node, not
    just between nodes, and a mid-node hit with an incumbent in hand
    must come back ``feasible`` — never ``optimal``."""

    def fractional_knapsack(self):
        # Fractional LP root, so node 1 both branches AND seeds an
        # incumbent through the rounding heuristic.
        return knapsack([8, 5, 4, 7, 6], [6, 5, 4, 6, 5], 12)

    def spans(self, monkeypatch, clock):
        """Solve under ``clock``; returns (solution, per-node clock-call
        spans of the inner simplex solves)."""
        from repro.ilp import branch_bound as bb

        monkeypatch.setattr(bb, "time", clock)
        solver = BranchAndBoundSolver(deadline_seconds=1.0)
        spans = []
        real_solve = solver._simplex.solve

        def counting_solve(program, stop=None):
            start = clock.calls
            result = real_solve(program, stop=stop)
            spans.append((start, clock.calls))
            return result

        solver._simplex.solve = counting_solve
        return solver.solve(lp := self.fractional_knapsack()), spans, lp

    def test_deadline_fires_inside_second_node(self, monkeypatch):
        # Dry run with a never-firing clock: map which clock calls land
        # inside each node's LP solve.
        baseline, spans, _ = self.spans(monkeypatch, _FakeClock())
        assert baseline.status == "optimal"
        assert len(spans) >= 2
        start, end = spans[1]
        assert end - start >= 2  # node 2's LP polls the stop callable

        # Replay with the clock firing mid-way through node 2's pivots:
        # strictly after the top-of-loop check, strictly before the LP
        # completes. Node 1 already produced a rounding incumbent, so
        # the cut-short solve must salvage it as "feasible".
        from repro.ilp import branch_bound as bb

        clock = _FakeClock(fire_at=start + 1)
        monkeypatch.setattr(bb, "time", clock)
        solution = BranchAndBoundSolver(deadline_seconds=1.0).solve(
            self.fractional_knapsack()
        )
        assert solution.status == "feasible"
        assert solution.objective is not None
        assert solution.objective <= baseline.objective + 1e-9

    def test_every_firing_point_feasible_never_optimal(self, monkeypatch):
        # Sweep the deadline over every clock call of the full solve:
        # wherever it lands, the result is either a salvaged feasible
        # incumbent or a typed SolverError — never a claimed optimum.
        from repro.ilp import branch_bound as bb

        full = _FakeClock()
        monkeypatch.setattr(bb, "time", full)
        baseline = BranchAndBoundSolver(deadline_seconds=1.0).solve(
            self.fractional_knapsack()
        )
        assert baseline.status == "optimal"
        total_calls = full.calls

        statuses = set()
        for fire_at in range(1, total_calls):
            clock = _FakeClock(fire_at=fire_at)
            monkeypatch.setattr(bb, "time", clock)
            solver = BranchAndBoundSolver(deadline_seconds=1.0)
            try:
                solution = solver.solve(self.fractional_knapsack())
            except SolverError as exc:
                assert "deadline" in str(exc)
                statuses.add("error")
                continue
            assert solution.status == "feasible"
            assert solution.objective <= baseline.objective + 1e-9
            statuses.add("feasible")
        # Both outcomes are reachable: early hits have no incumbent yet,
        # later hits salvage one.
        assert statuses == {"error", "feasible"}
