"""Fault injection and graceful degradation across the pipeline.

Every named fault point is exercised: the schedule grammar is
deterministic for a fixed seed, an idle harness perturbs nothing, and
each degradation ladder (retry -> serialize, quarantine, greedy
fallback, .bak recovery, worker watchdog, stream-loss checkpoint)
produces the documented behavior instead of an abort.
"""

from __future__ import annotations


import pytest

from repro.advisor.ilp_advisor import IlpIndexAdvisor
from repro.baselines.greedy import GreedyIndexAdvisor
from repro.cli import EXIT_STREAM_LOST, main as cli_main
from repro.errors import (
    AdvisorError,
    FaultInjected,
    ReproError,
    ResilienceError,
    SolverError,
    StateCorruptError,
)
from repro.ilp.branch_bound import BranchAndBoundSolver, solve_milp
from repro.ilp.model import LinearProgram, Sense
from repro.ilp.simplex import SimplexResult, SimplexSolver
from repro.online.tuner import OnlineTuner
from repro.partitioning.autopart import AutoPartAdvisor
from repro.resilience import (
    FaultInjector,
    backup_path,
    dump_state,
    faults,
    has_state,
    load_state,
)
from repro.workloads.sdss import sdss_workload
from repro.workloads.workload import Query, Workload

from tests.conftest import make_people_db
from tests.test_autopart import WORKLOAD as WIDE_WL, build_wide_db
from tests.test_online import PRE, stream_of


@pytest.fixture(autouse=True)
def _ambient_isolation():
    """No cached REPRO_FAULTS injector leaks between tests."""
    faults.reset_ambient()
    yield
    faults.reset_ambient()


@pytest.fixture(scope="module")
def db():
    return make_people_db(rows=3000, seed=29)


WL = Workload(
    name="resilience-test",
    queries=[
        Query("point", "select age from people where person_id = 44"),
        Query("range", "select person_id from people where age between 20 and 22"),
        Query("join", "select p.age, q.weight from people p, pets q "
                      "where p.person_id = q.owner_id and q.weight > 39"),
        Query("groupy", "select city, count(*) from people where height > 190 "
                        "group by city"),
    ],
)


def recommendation_key(result):
    """The advisor output fields that must be bit-identical."""
    return (
        sorted((i.table_name, tuple(i.columns)) for i in result.indexes),
        result.solver_status,
        result.cost_before,
        result.cost_after,
        result.size_pages,
    )


# ----------------------------------------------------------------------
# The schedule grammar


class TestFaultSpec:
    def fire_pattern(self, injector, point, n=40):
        fired = []
        for i in range(1, n + 1):
            try:
                injector.check(point, f"call {i}")
            except FaultInjected:
                fired.append(i)
        return fired

    def test_exact_count_fires_once(self):
        injector = FaultInjector.from_spec("inum.build:3")
        assert self.fire_pattern(injector, "inum.build") == [3]
        assert injector.checks("inum.build") == 40
        assert injector.fired("inum.build") == 1

    def test_count_list(self):
        injector = FaultInjector.from_spec("inum.build:3,7,9")
        assert self.fire_pattern(injector, "inum.build") == [3, 7, 9]

    def test_every_nth(self):
        injector = FaultInjector.from_spec("inum.build:%10")
        assert self.fire_pattern(injector, "inum.build") == [10, 20, 30, 40]

    def test_always(self):
        injector = FaultInjector.from_spec("stream.read:*")
        assert self.fire_pattern(injector, "stream.read", n=5) == [1, 2, 3, 4, 5]

    def test_probability_is_seed_deterministic(self):
        a = FaultInjector.from_spec("solver.iterate:p0.3", seed=11)
        b = FaultInjector.from_spec("solver.iterate:p0.3", seed=11)
        pattern = self.fire_pattern(a, "solver.iterate", n=200)
        assert pattern  # 200 draws at 30% fire somewhere
        assert pattern == self.fire_pattern(b, "solver.iterate", n=200)

    def test_points_are_independent(self):
        injector = FaultInjector.from_spec("inum.build:1;state.write:2")
        injector.check("state.write")  # count 1: silent
        with pytest.raises(FaultInjected):
            injector.check("inum.build")
        with pytest.raises(FaultInjected) as excinfo:
            injector.check("state.write", "the-file")
        assert excinfo.value.point == "state.write"
        assert excinfo.value.count == 2
        assert "the-file" in str(excinfo.value)

    def test_idle_injector_counts_but_never_fires(self):
        injector = FaultInjector()
        assert injector.idle
        assert self.fire_pattern(injector, "optimizer.plan") == []
        assert injector.checks("optimizer.plan") == 40
        assert injector.fired() == 0

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus.point:1",
            "inum.build",
            "inum.build:",
            "inum.build:%0",
            "inum.build:p1.5",
            "inum.build:abc",
            "inum.build:0",
            "inum.build:1;inum.build:2",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ResilienceError):
            FaultInjector.from_spec(spec)

    def test_unknown_point_at_check_time(self):
        with pytest.raises(ResilienceError):
            FaultInjector().check("not.a.point")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultInjector.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "inum.build:2")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "7")
        injector = FaultInjector.from_env()
        assert injector is not None and injector.seed == 7

    def test_ambient_cached_until_spec_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "inum.build:2")
        first = faults.ambient()
        assert first is faults.ambient()  # cached: counters accumulate
        monkeypatch.setenv("REPRO_FAULTS", "inum.build:3")
        assert faults.ambient() is not first
        monkeypatch.delenv("REPRO_FAULTS")
        assert faults.ambient() is None

    def test_explicit_injector_wins_over_ambient(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "inum.build:*")
        explicit = FaultInjector()  # idle
        faults.check("inum.build", injector=explicit)  # no fire
        assert explicit.checks("inum.build") == 1
        with pytest.raises(FaultInjected):
            faults.check("inum.build")  # ambient

    def test_module_check_is_noop_without_injector(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.check("inum.build")  # must not raise


# ----------------------------------------------------------------------
# Checksummed state files


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "state.json")
        dump_state(path, {"a": 1, "nested": {"b": [1, 2]}})
        state, source = load_state(path)
        assert source == "primary"
        assert state == {"a": 1, "nested": {"b": [1, 2]}}

    def test_rotation_keeps_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "state.json")
        dump_state(path, {"gen": 1})
        dump_state(path, {"gen": 2})
        assert load_state(path)[0] == {"gen": 2}
        assert load_state(backup_path(path))[0] == {"gen": 1}

    def test_torn_write_recovers_from_backup(self, tmp_path):
        path = str(tmp_path / "state.json")
        dump_state(path, {"gen": 1})
        dump_state(path, {"gen": 2})
        injector = FaultInjector.from_spec("state.write:1")
        with pytest.raises(FaultInjected):
            dump_state(path, {"gen": 3}, fault_injector=injector)
        # The primary is now a truncated prefix; the ladder falls back.
        state, source = load_state(path)
        assert source == "backup"
        assert state == {"gen": 1}

    def test_corrupt_primary_without_backup_raises(self, tmp_path):
        path = str(tmp_path / "state.json")
        with open(path, "w") as handle:
            handle.write('{"format": "repro-state-v1", "sha')
        with pytest.raises(StateCorruptError):
            load_state(path)

    def test_torn_primary_and_torn_backup_raises(self, tmp_path):
        # Both rungs of the ladder torn: two real checkpoints first, so
        # the .bak is a genuine envelope before it gets truncated too.
        path = str(tmp_path / "state.json")
        dump_state(path, {"gen": 1})
        dump_state(path, {"gen": 2})
        for victim in (path, backup_path(path)):
            text = open(victim).read()
            with open(victim, "w") as handle:
                handle.write(text[: len(text) // 3])
        with pytest.raises(StateCorruptError) as excinfo:
            load_state(path)
        # The error enumerates both failed candidates for the operator.
        assert "state.json" in str(excinfo.value)
        assert ".bak" in str(excinfo.value)

    def test_checksum_mismatch_detected(self, tmp_path):
        path = str(tmp_path / "state.json")
        with open(path, "w") as handle:
            handle.write(
                '{"format": "repro-state-v1", "sha256": "0" , "state": {"a": 1}}'
            )
        with pytest.raises(StateCorruptError, match="checksum"):
            load_state(path)

    def test_legacy_bare_dict_loads_unverified(self, tmp_path):
        path = str(tmp_path / "state.json")
        with open(path, "w") as handle:
            handle.write('{"monitor": {"observed": 5}}')
        state, source = load_state(path)
        assert source == "primary"
        assert state["monitor"]["observed"] == 5

    def test_missing_everything_raises(self, tmp_path):
        with pytest.raises(StateCorruptError, match="missing"):
            load_state(str(tmp_path / "nope.json"))

    def test_has_state(self, tmp_path):
        path = str(tmp_path / "state.json")
        assert not has_state(path)
        assert not has_state(None)
        dump_state(path, {"gen": 1})
        assert has_state(path)
        dump_state(path, {"gen": 2})
        import os

        os.remove(path)
        assert has_state(path)  # .bak alone still counts


# ----------------------------------------------------------------------
# The solvers under limits


def knapsack(values, sizes, capacity):
    lp = LinearProgram()
    variables = [
        lp.add_binary(f"x{i}", objective=v) for i, v in enumerate(values)
    ]
    lp.add_constraint(
        {variables[i]: sizes[i] for i in range(len(sizes))}, Sense.LE, capacity
    )
    return lp, variables


class _LimitedSimplex:
    """Solves to optimality, then reports the basis as cut short.

    Deterministically exercises the iteration-limit branch: the point
    handed back is feasible (it is the LP optimum) but carries the
    ``iteration_limit`` status, exactly what a phase-2 limit yields.
    """

    def __init__(self):
        self._inner = SimplexSolver()

    def solve(self, program):
        result = self._inner.solve(program)
        if result.status == "optimal":
            return SimplexResult(
                status="iteration_limit", x=result.x, objective=result.objective
            )
        return result


class _DeadSimplex:
    """A phase-1 iteration limit: no feasible point recovered at all."""

    def solve(self, program):
        return SimplexResult(status="iteration_limit", x=None, objective=None)


class TestSolverLimits:
    def big_program(self):
        import random

        rng = random.Random(5)
        values = [rng.randint(1, 30) for _ in range(25)]
        sizes = [1] * 25
        return knapsack(values, sizes, 12)

    def test_iteration_limit_returns_incumbent(self):
        lp, variables = self.big_program()
        optimal = solve_milp(lp).objective
        solver = BranchAndBoundSolver()
        solver._simplex = _LimitedSimplex()
        solution = solver.solve(lp)
        # The rounding heuristic salvages an incumbent from the cut-short
        # LP, but the optimality proof is forfeited.
        assert solution.status == "feasible"
        assert not solution.is_optimal
        assert 0.0 < solution.objective <= optimal + 1e-6
        # The incumbent respects the knapsack constraint.
        assert sum(solution.value(v.name) for v in variables) <= 12 + 1e-6

    def test_iteration_limit_without_incumbent_raises(self):
        lp, _ = self.big_program()
        solver = BranchAndBoundSolver()
        solver._simplex = _DeadSimplex()
        with pytest.raises(SolverError, match="iteration limit"):
            solver.solve(lp)

    def test_deadline_without_incumbent_raises(self):
        lp, _ = self.big_program()
        solver = BranchAndBoundSolver(deadline_seconds=1e-12)
        with pytest.raises(SolverError, match="deadline"):
            solver.solve(lp)

    def test_bad_deadline_rejected(self):
        with pytest.raises(SolverError):
            BranchAndBoundSolver(deadline_seconds=0.0)

    def test_solver_iterate_fault_propagates(self):
        lp, _ = self.big_program()
        injector = FaultInjector.from_spec("solver.iterate:1")
        solver = BranchAndBoundSolver(fault_injector=injector)
        with pytest.raises(FaultInjected):
            solver.solve(lp)


# ----------------------------------------------------------------------
# The index advisors


class TestAdvisorDegradation:
    @pytest.fixture(scope="class")
    def clean(self, db):
        return IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=200)

    def test_idle_injector_bit_identical(self, db, clean):
        idle = IlpIndexAdvisor(
            db.catalog, fault_injector=FaultInjector()
        ).recommend(WL, budget_pages=200)
        assert recommendation_key(idle) == recommendation_key(clean)
        assert idle.degraded == []

    def test_inum_fault_quarantines_one_query(self, db, clean):
        injector = FaultInjector.from_spec("inum.build:1")
        result = IlpIndexAdvisor(
            db.catalog, fault_injector=injector
        ).recommend(WL, budget_pages=200)
        quarantined = [d for d in result.degraded if d.point == "inum.build"]
        assert [d.subject for d in quarantined] == ["point"]
        assert all(d.action == "quarantined" for d in quarantined)
        # The surviving three queries still get a design.
        survivors = [benefit.name for benefit in result.per_query]
        assert survivors and "point" not in survivors
        assert result.size_pages <= 200

    def test_every_query_quarantined_is_fatal(self, db):
        injector = FaultInjector.from_spec("inum.build:1,2,3,4")
        with pytest.raises(AdvisorError, match="every workload query"):
            IlpIndexAdvisor(db.catalog, fault_injector=injector).recommend(
                WL, budget_pages=200
            )

    def test_solver_fault_falls_back_to_greedy(self, db):
        injector = FaultInjector.from_spec("solver.iterate:1")
        result = IlpIndexAdvisor(
            db.catalog, fault_injector=injector
        ).recommend(WL, budget_pages=200)
        assert result.solver_status == "greedy-fallback"
        fallbacks = [d for d in result.degraded if d.action == "fallback"]
        assert len(fallbacks) == 1 and fallbacks[0].point == "solver.iterate"
        assert result.size_pages <= 200
        assert result.cost_after <= result.cost_before

    def test_greedy_baseline_quarantines_too(self, db):
        injector = FaultInjector.from_spec("inum.build:1")
        result = GreedyIndexAdvisor(
            db.catalog, fault_injector=injector
        ).recommend(WL, budget_pages=200)
        assert [d.subject for d in result.degraded] == ["point"]
        assert "point" not in [benefit.name for benefit in result.per_query]


# ----------------------------------------------------------------------
# AutoPart


class TestAutoPartDegradation:
    @pytest.fixture(scope="class")
    def wide_db(self):
        return build_wide_db(rows=1500, width=12, seed=43)

    def test_idle_injector_identical_schemes(self, wide_db):
        clean = AutoPartAdvisor(
            wide_db.catalog, max_iterations=4
        ).recommend(WIDE_WL)
        idle = AutoPartAdvisor(
            wide_db.catalog, max_iterations=4, fault_injector=FaultInjector()
        ).recommend(WIDE_WL)
        assert {t: s.fragments for t, s in idle.schemes.items()} == {
            t: s.fragments for t, s in clean.schemes.items()
        }
        assert idle.cost_after == clean.cost_after
        assert idle.degraded == []

    def test_plan_fault_quarantines_query(self, wide_db):
        injector = FaultInjector.from_spec("optimizer.plan:1")
        result = AutoPartAdvisor(
            wide_db.catalog, max_iterations=4, fault_injector=injector
        ).recommend(WIDE_WL)
        plan_faults = [d for d in result.degraded if d.point == "optimizer.plan"]
        assert len(plan_faults) == 1
        name = plan_faults[0].subject
        assert plan_faults[0].action == "quarantined"
        # The quarantined query keeps its original SQL (never rewritten
        # onto fragments it was not priced against) and is out of the
        # per-query report; the rest of the workload still partitions.
        assert result.rewritten_sql[name] == WIDE_WL.query(name).sql.strip()
        assert name not in [benefit.name for benefit in result.per_query]
        assert result.schemes

    def test_unbindable_query_quarantined(self, wide_db):
        bad = Query("bad", "select nosuchcol from wide where c00 < 5")
        workload = Workload(queries=[*WIDE_WL.queries, bad], name="with-bad")
        result = AutoPartAdvisor(wide_db.catalog, max_iterations=4).recommend(workload)
        assert [(d.subject, d.action) for d in result.degraded] == [("bad", "quarantined")]
        assert result.rewritten_sql["bad"] == bad.sql
        assert [benefit.name for benefit in result.per_query] == [
            q.name for q in WIDE_WL
        ]
        assert all("wide__frag" in result.rewritten_sql[q.name] for q in WIDE_WL)


# ----------------------------------------------------------------------
# The online tuner


class TestTunerDegradation:
    STREAM = [
        "select age from people where person_id = 5",
        "select age from people where person_id = 6",
        "select person_id from people where age between 30 and 40",
        "select person_id from people where age between 31 and 41",
    ]

    def make_tuner(self, db, **knobs):
        return OnlineTuner(
            db.catalog,
            budget_pages=100,
            window_size=8,
            warmup=len(self.STREAM),
            check_interval=2,
            **knobs,
        )

    def test_default_posture_raises(self, db):
        tuner = self.make_tuner(db)
        for sql in self.STREAM[:-1]:
            tuner.observe(sql)
        tuner._advisor.recommend = _boom
        with pytest.raises(ReproError, match="advisor exploded"):
            tuner.observe(self.STREAM[-1])  # warmup boundary advises inline

    def test_degrade_on_error_keeps_design(self, db):
        tuner = self.make_tuner(db, degrade_on_error=True)
        for sql in self.STREAM[:-1]:
            tuner.observe(sql)
        tuner._advisor.recommend = _boom
        tuner.observe(self.STREAM[-1])  # absorbed
        assert tuner.event_counts["degraded"] == 1
        assert tuner.design == []
        events = [e for e in tuner.events if e.kind == "degraded"]
        assert "re-advise failed" in events[0].detail
        # The baseline did not move, so the advisor gets retried at the
        # next boundary; once it heals, tuning resumes.
        del tuner._advisor.recommend
        result = tuner.readvise(reason="healed")
        assert result is not None


def _boom(*args, **kwargs):
    raise ReproError("advisor exploded")


# ----------------------------------------------------------------------
# The tune daemon end to end (REPRO_FAULTS replay, exit codes)


def design_lines(out: str) -> list[str]:
    return [
        line.strip() for line in out.splitlines()
        if line.strip().startswith("CREATE INDEX")
    ]


class TestTuneCommandResilience:
    @pytest.fixture()
    def stream_file(self, tmp_path):
        statements = stream_of(sdss_workload(), PRE, 5)
        path = tmp_path / "stream.sql"
        path.write_text(";\n".join(statements) + ";\n")
        return path

    def base_args(self, stream_file):
        return [
            "--db", "sdss:800",
            "tune",
            "--stream", str(stream_file),
            "--budget-mb", "1.6",
            "--window", "9",
            "--check-interval", "3",
            "--build-cost-per-page", "0.25",
        ]

    def test_faulted_replay_matches_clean_run(
        self, capsys, tmp_path, stream_file, monkeypatch
    ):
        assert cli_main(self.base_args(stream_file)) == 0
        reference = capsys.readouterr().out
        # One torn state write, on the ambient CI schedule; the adopted
        # design and the whole summary must be unchanged.
        monkeypatch.setenv("REPRO_FAULTS", "state.write:2")
        state = tmp_path / "state.json"
        code = cli_main(
            self.base_args(stream_file)
            + ["--state", str(state), "--state-interval", "5"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert design_lines(captured.out) == design_lines(reference)
        assert "Stream done" in captured.out
        assert "state checkpoint" in captured.err  # the torn write warned
        # The final checkpoint survived the mid-run torn write.
        saved, _source = load_state(str(state))
        assert saved["stream_position"] == 15

    def test_stream_loss_checkpoints_and_exits_3(
        self, capsys, tmp_path, stream_file, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "stream.read:10")
        state = tmp_path / "state.json"
        code = cli_main(
            self.base_args(stream_file) + ["--state", str(state)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_STREAM_LOST
        assert "statement stream lost" in captured.err
        assert "Stream done: 9 statements" in captured.out
        saved, _source = load_state(str(state))
        assert saved["stream_position"] == 9
        assert saved["monitor"]["observed"] == 9

    def test_unrecoverable_state_starts_cold(
        self, capsys, tmp_path, stream_file
    ):
        state = tmp_path / "state.json"
        state.write_text("{ not json")
        code = cli_main(
            self.base_args(stream_file) + ["--state", str(state)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "state file unrecoverable" in captured.err
        assert "starting cold" in captured.err
        assert "Stream done: 15 statements" in captured.out
        # The bad file was overwritten with a fresh good checkpoint.
        saved, source = load_state(str(state))
        assert source == "primary"
        assert saved["stream_position"] == 15

    def test_torn_primary_and_backup_starts_cold_with_warning(
        self, capsys, tmp_path, stream_file
    ):
        # Both ladder rungs torn (not just a missing .bak): cold start
        # must win, with a warning, and the run must still complete.
        state = tmp_path / "state.json"
        dump_state(str(state), {"stream_position": 3})
        dump_state(str(state), {"stream_position": 6})
        for victim in (str(state), backup_path(str(state))):
            text = open(victim).read()
            with open(victim, "w") as handle:
                handle.write(text[: len(text) // 3])
        code = cli_main(
            self.base_args(stream_file) + ["--state", str(state)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "state file unrecoverable" in captured.err
        assert "starting cold" in captured.err
        # Cold start: nothing was skipped, the whole stream was observed.
        assert "Stream done: 15 statements" in captured.out
        saved, source = load_state(str(state))
        assert source == "primary"
        assert saved["stream_position"] == 15
