"""Simplex correctness, cross-checked against scipy's linprog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.ilp.model import LinearProgram, Sense
from repro.ilp.simplex import SimplexSolver, check_feasible, fix_variables


def solve(lp: LinearProgram):
    return SimplexSolver().solve(lp.compile())


class TestTextbookCases:
    def test_two_variable_max(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.set_objective({x: 3, y: 2})
        lp.add_constraint({x: 1, y: 1}, Sense.LE, 4)
        lp.add_constraint({x: 1, y: 3}, Sense.LE, 6)
        result = solve(lp)
        assert result.is_optimal
        assert result.objective == pytest.approx(12.0)
        assert result.x == pytest.approx([4.0, 0.0])

    def test_equality_and_ge(self):
        lp = LinearProgram()
        a = lp.add_variable("a")
        b = lp.add_variable("b")
        lp.set_objective({a: 1, b: 1})
        lp.add_constraint({a: 1, b: 2}, Sense.EQ, 4)
        lp.add_constraint({a: 1}, Sense.GE, 1)
        lp.add_constraint({a: 1}, Sense.LE, 3)
        result = solve(lp)
        assert result.objective == pytest.approx(3.5)

    def test_upper_bounds_respected(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper_bound=2.5, objective=1.0)
        result = solve(lp)
        assert result.objective == pytest.approx(2.5)

    def test_infeasible(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper_bound=1.0, objective=1.0)
        lp.add_constraint({x: 1}, Sense.GE, 2)
        assert solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint({x: -1}, Sense.LE, 0)
        assert solve(lp).status == "unbounded"

    def test_degenerate_redundant_rows(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint({x: 1}, Sense.LE, 5)
        lp.add_constraint({x: 1}, Sense.LE, 5)
        lp.add_constraint({x: 2}, Sense.LE, 10)
        result = solve(lp)
        assert result.objective == pytest.approx(5.0)

    def test_negative_rhs_normalized(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=-1.0)
        lp.add_constraint({x: -1}, Sense.LE, -2)  # x >= 2
        result = solve(lp)
        assert result.is_optimal
        assert result.x[0] == pytest.approx(2.0)


_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@st.composite
def mixed_lps(draw):
    """``<=`` rows of either rhs sign, ``>=`` and ``=`` rows, finite and
    infinite upper bounds: phase 1 runs whenever a row the slack start
    cannot cover (all but ``<=`` with rhs >= 0) is drawn."""
    n = draw(st.integers(1, 5))
    coefficient = st.integers(-4, 5).map(float)
    lp = LinearProgram()
    variables = [
        lp.add_variable(
            f"x{i}",
            upper_bound=draw(st.one_of(st.none(), st.integers(1, 10).map(float))),
        )
        for i in range(n)
    ]
    lp.set_objective({v: draw(coefficient) for v in variables})
    for _ in range(draw(st.integers(1, 5))):
        sense = draw(st.sampled_from([Sense.LE, Sense.GE, Sense.EQ]))
        row = {v: draw(coefficient) for v in variables}
        lp.add_constraint(row, sense, float(draw(st.integers(-10, 20))))
    return lp


def _linprog(compiled):
    """HiGHS on the same compiled program (it minimizes)."""
    return linprog(
        -compiled.objective,
        A_ub=compiled.a_ub if compiled.a_ub.size else None,
        b_ub=compiled.b_ub if compiled.a_ub.size else None,
        A_eq=compiled.a_eq if compiled.a_eq.size else None,
        b_eq=compiled.b_eq if compiled.a_eq.size else None,
        bounds=[
            (0, ub if np.isfinite(ub) else None) for ub in compiled.upper_bounds
        ],
        method="highs",
    )


class TestAgainstScipy:
    @given(mixed_lps())
    @settings(max_examples=100, deadline=None)
    def test_matches_highs_on_mixed_rows(self, lp):
        compiled = lp.compile()
        ours = SimplexSolver().solve(compiled)
        theirs = _linprog(compiled)
        assert ours.status == _HIGHS_STATUS[theirs.status]
        if ours.is_optimal:
            assert ours.objective == pytest.approx(-theirs.fun, abs=1e-6)
            assert check_feasible(compiled, ours.x)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_lps(self, seed):
        # All rows <= with rhs > 0: the slack start, phase 2 only -- the
        # shape of every program the index advisor emits.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        c = rng.uniform(-5, 5, n)
        A = rng.uniform(-3, 5, (m, n))
        b = rng.uniform(1, 20, m)

        lp = LinearProgram()
        variables = [lp.add_variable(f"x{i}", upper_bound=10.0) for i in range(n)]
        lp.set_objective({v: c[i] for i, v in enumerate(variables)})
        for row in range(m):
            lp.add_constraint(
                {v: A[row, i] for i, v in enumerate(variables)}, Sense.LE, b[row]
            )
        ours = solve(lp)

        scipy_result = linprog(
            -c, A_ub=A, b_ub=b, bounds=[(0, 10)] * n, method="highs"
        )
        assert ours.is_optimal == scipy_result.success
        if ours.is_optimal:
            assert ours.objective == pytest.approx(-scipy_result.fun, abs=1e-6)


class TestSlackStart:
    """Rows whose own slack is feasible start basic on it: phase 1 runs
    only over the rows that need an artificial."""

    @staticmethod
    def phase_pivots(monkeypatch, compiled):
        """Solve ``compiled``; return [phase-1 pivots, phase-2 pivots]."""
        structural = (
            compiled.objective.shape[0]
            + compiled.a_ub.shape[0]
            + int(np.isfinite(compiled.upper_bounds).sum())
        )
        pivots = [0, 0]
        phase = [1]
        real_iterate = SimplexSolver._iterate
        real_pivot = SimplexSolver._pivot

        def iterate(self, tableau, basis, allow_columns, stop=None):
            # Phase 1 also prices the artificial columns.
            phase[0] = 0 if allow_columns > structural else 1
            return real_iterate(self, tableau, basis, allow_columns, stop)

        def pivot(tableau, row, col):
            pivots[phase[0]] += 1
            real_pivot(tableau, row, col)

        monkeypatch.setattr(SimplexSolver, "_iterate", iterate)
        monkeypatch.setattr(SimplexSolver, "_pivot", staticmethod(pivot))
        result = SimplexSolver().solve(compiled)
        assert result.is_optimal
        return pivots

    @staticmethod
    def index_selection_lp(ge_row: bool = False):
        """The advisor's shape: binaries, ``y <= x`` couplings, a
        budget row; all ``<=`` with rhs >= 0."""
        lp = LinearProgram()
        x1, x2 = lp.add_binary("x1"), lp.add_binary("x2")
        ys = [lp.add_binary(f"y{i}") for i in range(3)]
        lp.set_objective({ys[0]: 5.0, ys[1]: 4.0, ys[2]: 3.0})
        lp.add_constraint({ys[0]: 1.0, x1: -1.0}, Sense.LE, 0.0)
        lp.add_constraint({ys[1]: 1.0, x2: -1.0}, Sense.LE, 0.0)
        lp.add_constraint({ys[2]: 1.0, x1: -1.0}, Sense.LE, 0.0)
        lp.add_constraint({x1: 3.0, x2: 2.0}, Sense.LE, 4.0)
        if ge_row:
            lp.add_constraint({x2: 1.0}, Sense.GE, 0.5)
        return lp.compile()

    def test_all_le_program_has_no_phase_1_pivots(self, monkeypatch):
        phase1, phase2 = self.phase_pivots(monkeypatch, self.index_selection_lp())
        assert phase1 == 0
        assert phase2 > 0

    def test_ge_row_runs_phase_1(self, monkeypatch):
        # The counter sees phase 1 when there is one, so the zero
        # above is not vacuous.
        phase1, _ = self.phase_pivots(
            monkeypatch, self.index_selection_lp(ge_row=True)
        )
        assert phase1 > 0


class TestFixVariables:
    def test_substitution(self):
        lp = LinearProgram()
        x = lp.add_binary("x", objective=5.0)
        y = lp.add_binary("y", objective=3.0)
        lp.add_constraint({x: 2.0, y: 1.0}, Sense.LE, 2.0)
        compiled = lp.compile()
        reduced, offset, keep = fix_variables(compiled, {x.index: 1.0})
        assert offset == 5.0
        assert keep == [y.index]
        assert reduced.b_ub[0] == pytest.approx(0.0)

    def test_check_feasible(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper_bound=1.0)
        lp.add_constraint({x: 1.0}, Sense.LE, 0.5)
        compiled = lp.compile()
        assert check_feasible(compiled, np.array([0.25]))
        assert not check_feasible(compiled, np.array([0.75]))
        assert not check_feasible(compiled, np.array([-0.1]))


class TestStopCallable:
    """The per-pivot ``stop`` hook: deterministic sweep over every poll
    index of a full solve."""

    def program(self, ge_row: bool = False):
        lp = LinearProgram()
        a = lp.add_variable("a", objective=3.0)
        b = lp.add_variable("b", objective=5.0)
        c = lp.add_variable("c", objective=4.0)
        lp.add_constraint({a: 2.0, b: 3.0}, Sense.LE, 8.0)
        lp.add_constraint({b: 2.0, c: 5.0}, Sense.LE, 10.0)
        lp.add_constraint({a: 3.0, b: 2.0, c: 4.0}, Sense.LE, 15.0)
        if ge_row:
            # No slack start for this row: it needs an artificial.
            lp.add_constraint({a: 1.0, c: 1.0}, Sense.GE, 3.0)
        return lp.compile()

    @staticmethod
    def sweep(compiled):
        """The full solve, then one solve cut at each of its polls."""
        polls = 0

        def count():
            nonlocal polls
            polls += 1
            return False

        full = SimplexSolver().solve(compiled, stop=count)
        assert full.status == "optimal"
        assert polls >= 3

        cuts = []
        for fire_at in range(1, polls + 1):
            calls = 0

            def stop():
                nonlocal calls
                calls += 1
                return calls >= fire_at

            result = SimplexSolver().solve(compiled, stop=stop)
            # The stop fires strictly before natural completion, so the
            # status is always "deadline"; a phase-2 cut still carries a
            # feasible point, a phase-1 cut carries none.
            assert result.status == "deadline"
            if result.x is not None:
                assert check_feasible(compiled, result.x)
                assert result.objective <= full.objective + 1e-9
            cuts.append(result)
        return cuts

    def test_sweep_every_poll_index(self):
        # All rows start on their slacks: no phase 1, so every cut
        # carries a feasible point.
        cuts = self.sweep(self.program())
        assert all(cut.x is not None for cut in cuts)

    def test_sweep_with_a_ge_row_cuts_phase_1(self):
        cuts = self.sweep(self.program(ge_row=True))
        assert any(cut.x is None for cut in cuts)
        assert any(cut.x is not None for cut in cuts)

    def test_none_stop_matches_default(self):
        compiled = self.program()
        plain = SimplexSolver().solve(compiled)
        hooked = SimplexSolver().solve(compiled, stop=lambda: False)
        assert plain.status == hooked.status == "optimal"
        assert np.array_equal(plain.x, hooked.x)


def _pivot_row_by_row(tableau: np.ndarray, row: int, col: int) -> None:
    """The interpreted elimination loop ``_pivot`` replaced."""
    tableau[row, :] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 1e-13:
            tableau[r, :] -= tableau[r, col] * tableau[row, :]


class TestPivotBitIdentity:
    """The rank-1 update performs, element for element, the IEEE
    operations of the row loop: equal bytes, not approximately equal."""

    @staticmethod
    def _tableaux():
        rng = np.random.default_rng(20100322)
        for case in range(40):
            rows, cols = rng.integers(2, 30), rng.integers(2, 60)
            tableau = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(rows, cols))
            kind = case % 4
            if kind == 1:  # ~90 % zeros, like a real simplex tableau
                tableau[rng.random(tableau.shape) < 0.9] = 0.0
            row, col = rng.integers(rows), rng.integers(cols)
            if kind == 2:  # pivot-column entries straddling the threshold
                tableau[:, col] = rng.choice(
                    [0.0, -0.0, 9e-14, -9e-14, 1e-13, 1.1e-13, -1.1e-13, 3.0],
                    size=rows,
                )
            if kind == 3:  # nothing to eliminate
                tableau[:, col] = 0.0
            tableau[row, col] = rng.choice([-2.5, 0.3, 1.0, 7.0])
            yield tableau, int(row), int(col)

    def test_equal_bytes_on_random_tableaux(self):
        for tableau, row, col in self._tableaux():
            want = tableau.copy()
            _pivot_row_by_row(want, row, col)
            SimplexSolver._pivot(tableau, row, col)
            assert tableau.tobytes() == want.tobytes()

    def test_pivot_column_becomes_a_unit_vector(self):
        tableau = np.array([[2.0, 1.0, 4.0], [1.0, 3.0, 6.0], [0.0, 5.0, 1.0]])
        SimplexSolver._pivot(tableau, 0, 0)
        assert tableau[:, 0].tolist() == [1.0, 0.0, 0.0]
        assert tableau[1].tolist() == [0.0, 2.5, 4.0]
        assert tableau[2].tolist() == [0.0, 5.0, 1.0]


class TestReentrancy:
    def test_interleaved_solves_on_one_instance(self):
        # Branch and bound shares one solver across all its nodes, so a
        # solve must leave nothing behind for the next one to read.
        first = LinearProgram()
        x = first.add_variable("x", upper_bound=4.0)
        y = first.add_variable("y", upper_bound=3.0)
        first.set_objective({x: 3, y: 2})
        first.add_constraint({x: 1, y: 1}, Sense.LE, 5)
        second = LinearProgram()
        a = second.add_variable("a")
        b = second.add_variable("b")
        c = second.add_variable("c", upper_bound=1.0)
        second.set_objective({a: 1, b: 1, c: 5})
        second.add_constraint({a: 1, b: 2}, Sense.EQ, 4)
        second.add_constraint({a: 1, c: 1}, Sense.GE, 1)
        programs = [first.compile(), second.compile()]

        shared = SimplexSolver()
        seen_by_first = []

        def solve_the_other_one() -> bool:
            # Runs once per pivot of the outer solve, on the same solver.
            seen_by_first.append(shared.solve(programs[1]))
            return False

        outer = shared.solve(programs[0], stop=solve_the_other_one)
        assert seen_by_first
        for got, program in [(outer, programs[0]), (seen_by_first[-1], programs[1])]:
            want = SimplexSolver().solve(program)
            assert got.status == want.status == "optimal"
            assert got.x.tobytes() == want.x.tobytes()
            assert got.objective == want.objective
        assert set(vars(shared)) == {"_max_iterations", "_tol"}
