"""Closed-loop fleet serving: rollouts, health gate, kill/resume.

The acceptance loop for PR 9:

* the rollout invariant — at no observable step are two replicas
  simultaneously out of serving rotation (quarantine excepted, which
  is permanent capacity loss by design);
* a SIGKILL at *every* controller journal write and every apply
  journal write, followed by a resume, converges to databases and
  terminal designs byte-identical to an uninterrupted run;
* an injected sustained regression rolls back exactly the regressing
  replica and freezes the fleet, while a stable design never triggers
  a rollback;
* a faulted apply quarantines the replica instead of aborting the
  fleet.

Satellites are pinned here too: Router save/load/reset semantics,
WorkloadMonitor.merge equivalence with a combined monitor, and
Database.clone isolation.
"""

from __future__ import annotations

import pytest

from repro.catalog.schema import Index, index_signature
from repro.errors import FaultInjected, ReproError
from repro.fleet.router import ROUTER_STATE_VERSION, Router
from repro.fleet.serve import FLEET_STATE_VERSION, FleetController
from repro.online.drift import DriftDetector
from repro.online.monitor import WorkloadMonitor
from repro.resilience import faults
from repro.resilience import state as resilience_state
from repro.resilience.faults import FaultInjector
from repro.resilience.store import FileStateStore

from tests.conftest import make_people_db


@pytest.fixture(autouse=True)
def _ambient_isolation():
    faults.reset_ambient()
    yield
    faults.reset_ambient()


# ----------------------------------------------------------------------
# Deterministic streams over the people/pets schema. Literals vary per
# statement (the monitor canonicalizes them onto one template), and the
# mix shifts between phases to drive drift on purpose.

def _age_q(i: int) -> str:
    # Selective (first-seen literal prices the template): an (age,
    # person_id) covering index beats the seq scan by ~6x.
    return f"SELECT person_id FROM people WHERE age < {1 + i % 9}"


def _height_q(i: int) -> str:
    return f"SELECT person_id FROM people WHERE height < {143 + i % 8}.5"


def _weight_q(i: int) -> str:
    return f"SELECT pet_id FROM pets WHERE weight < {3 + i % 5}.25"


def stable_stream(n: int) -> list[str]:
    """One fixed two-template mix; never drifts once baselined."""
    out = []
    for i in range(n):
        out.append(_age_q(i) if i % 2 == 0 else _height_q(i))
    return out


def drifting_stream(n: int) -> list[str]:
    """Age/height mix for the first half, height/weight after."""
    out = []
    for i in range(n):
        if i < n // 2:
            out.append(_age_q(i) if i % 2 == 0 else _height_q(i))
        else:
            out.append(_weight_q(i) if i % 2 == 0 else _height_q(i))
    return out


# Covering candidates (advisor-style names on purpose — the executor
# renames them to deterministic idx_* materialized names).
AGE_INDEX = Index(
    "cand_1_people_age", "people", ("age", "person_id"), hypothetical=True
)
HEIGHT_INDEX = Index(
    "cand_2_people_height",
    "people",
    ("height", "person_id"),
    hypothetical=True,
)
WEIGHT_INDEX = Index(
    "cand_3_pets_weight", "pets", ("weight", "pet_id"), hypothetical=True
)


def fleet_databases(n: int, rows: int = 1200, seed: int = 5):
    base = make_people_db(rows=rows, seed=seed)
    return [base] + [base.clone() for _ in range(n - 1)]


def db_fingerprint(db) -> tuple:
    entries = []
    for name in sorted(db.catalog.index_names):
        ix = db.catalog.index(name)
        entries.append(
            (
                ix.name,
                ix.table_name,
                ix.columns,
                ix.unique,
                ix.hypothetical,
                db.has_btree(name),
            )
        )
    return tuple(entries)


def make_controller(databases, state_path=None, **knobs):
    knobs.setdefault("budget_pages", 256)
    knobs.setdefault("window_size", 16)
    knobs.setdefault("check_interval", 8)
    knobs.setdefault("state_interval", 10_000)
    knobs.setdefault("regression_windows", 2)
    knobs.setdefault("probation_windows", 3)
    knobs.setdefault("max_rounds", 3)
    if state_path is not None:
        knobs["store"] = FileStateStore(state_path)
    return FleetController(databases, **knobs)


# ----------------------------------------------------------------------
# Satellite 1 + 3: Router persistence and reset semantics


ROUTER_COSTS = {
    "t1": (10.0, 20.0, 30.0),
    "t2": (30.0, 10.0, 20.0),
    "t3": (0.0, 0.0, 0.0),  # unpriced: balances like unknown
}
ROUTER_FPS = {
    "select a from t where x < ?": "t1",
    "select b from t where y < ?": "t2",
    "select c from t where z < ?": "t3",
}
ROUTER_STREAM = [
    "SELECT a FROM t WHERE x < 1",
    "SELECT b FROM t WHERE y < 2",
    "SELECT c FROM t WHERE z < 3",
    "SELECT d FROM t WHERE w < 4",  # unknown template
] * 6


class TestRouterPersistence:
    def _fresh(self, max_share=0.6):
        return Router(
            ROUTER_COSTS, 3, max_share=max_share, fingerprints=ROUTER_FPS
        )

    def test_save_load_round_trips_everything(self):
        router = self._fresh()
        for sql in ROUTER_STREAM[:13]:
            router.route(sql, weight=1.5)
        router.exclude(2)
        state = router.save()
        clone = Router.load(state)
        assert clone.n_replicas == router.n_replicas
        assert clone.max_share == router.max_share
        assert clone.loads == router.loads
        assert clone.excluded == router.excluded
        assert clone.unpriced_routed == router.unpriced_routed
        assert clone.unknown_routed == router.unknown_routed
        assert clone.routed == router.routed

    def test_resumed_router_routes_suffix_identically(self):
        original = self._fresh()
        for sql in ROUTER_STREAM[:11]:
            original.route(sql)
        resumed = Router.load(original.save())
        suffix = ROUTER_STREAM[11:]
        assert [resumed.route(s) for s in suffix] == [
            original.route(s) for s in suffix
        ]
        assert resumed.loads == original.loads

    def test_save_is_json_clean(self):
        import json

        router = self._fresh()
        router.route(ROUTER_STREAM[0])
        assert json.loads(json.dumps(router.save())) == router.save()

    def test_version_mismatch_is_refused(self):
        state = self._fresh().save()
        state["version"] = ROUTER_STATE_VERSION + 1
        with pytest.raises(ReproError, match="version"):
            Router.load(state)


class TestRouterResetSemantics:
    """reset() must behave exactly like fresh construction: a new
    rollout cannot inherit loads, exclusions, or fallback counters."""

    def _fresh(self):
        return Router(
            ROUTER_COSTS, 3, max_share=0.6, fingerprints=ROUTER_FPS
        )

    def test_reset_equals_fresh_router_property(self):
        dirty = self._fresh()
        fresh = self._fresh()
        # Dirty it thoroughly: routed load, exclusions, fallbacks.
        for i, sql in enumerate(ROUTER_STREAM):
            dirty.route(sql, weight=1.0 + (i % 3))
        dirty.exclude(0)
        dirty.route(ROUTER_STREAM[0])
        dirty.reset()
        assert dirty.excluded == frozenset()
        assert dirty.loads == fresh.loads
        assert dirty.routed == fresh.routed == 0
        assert dirty.unknown_routed == fresh.unknown_routed == 0
        assert dirty.unpriced_routed == fresh.unpriced_routed == 0
        # The property: identical route decisions on any stream.
        weights = [1.0, 2.0, 0.5, 1.25] * 6
        assert [
            dirty.route(s, w) for s, w in zip(ROUTER_STREAM, weights)
        ] == [fresh.route(s, w) for s, w in zip(ROUTER_STREAM, weights)]

    def test_reset_clears_exclusions(self):
        router = self._fresh()
        router.exclude(1)
        router.reset()
        # Replica 1 is the cheapest for t2 again.
        assert router.route("SELECT b FROM t WHERE y < 9") == 1


class TestRouterRotation:
    def _fresh(self):
        return Router(ROUTER_COSTS, 3, fingerprints=ROUTER_FPS)

    def test_excluded_replica_receives_nothing(self):
        router = self._fresh()
        router.exclude(0)
        routes = {router.route(s) for s in ROUTER_STREAM}
        assert 0 not in routes

    def test_restore_returns_replica_to_rotation(self):
        router = self._fresh()
        router.exclude(0)
        router.restore(0)
        assert router.route("SELECT a FROM t WHERE x < 5") == 0

    def test_exclude_is_idempotent_and_validated(self):
        router = self._fresh()
        router.exclude(1)
        router.exclude(1)
        assert router.excluded == frozenset({1})
        with pytest.raises(ReproError):
            router.exclude(3)

    def test_last_replica_cannot_be_excluded(self):
        router = self._fresh()
        router.exclude(0)
        router.exclude(1)
        with pytest.raises(ReproError, match="last replica"):
            router.exclude(2)
        solo = Router({}, 1)
        with pytest.raises(ReproError, match="last replica"):
            solo.exclude(0)


# ----------------------------------------------------------------------
# Database.clone isolation (fleet forking)


class TestDatabaseClone:
    def test_clone_shares_rows_but_not_catalog(self):
        db = make_people_db(rows=120, seed=7)
        clone = db.clone()
        assert clone.relation("people") is db.relation("people")
        clone.create_index(Index("idx_people_age", "people", ("age",)))
        assert clone.catalog.has_index("idx_people_age")
        assert not db.catalog.has_index("idx_people_age")
        assert clone.has_btree("idx_people_age")
        assert not db.has_btree("idx_people_age")

    def test_clone_drop_does_not_leak_back(self):
        db = make_people_db(rows=120, seed=7)
        db.create_index(Index("idx_people_age", "people", ("age",)))
        clone = db.clone()
        clone.drop_index("idx_people_age")
        assert db.catalog.has_index("idx_people_age")
        assert db.has_btree("idx_people_age")


# ----------------------------------------------------------------------
# Satellite 2: sharded monitor merge


class TestMonitorMerge:
    def _shard(self, stream, n_shards, window=64):
        shards = [
            WorkloadMonitor(window_size=window) for _ in range(n_shards)
        ]
        for i, sql in enumerate(stream):
            shards[i % n_shards].observe(sql)
        return shards

    def test_merged_drift_decision_matches_combined_monitor(self):
        # Stream short enough that no shard window evicts: the merge
        # then reproduces the combined window statistics exactly.
        baseline_part = stable_stream(40)
        drifted_part = drifting_stream(40)[20:]
        combined = WorkloadMonitor(window_size=64)
        for sql in baseline_part:
            combined.observe(sql)
        shards = self._shard(baseline_part, 3)
        merged = shards[0].merge(shards[1]).merge(shards[2])
        assert merged.window_distribution() == pytest.approx(
            combined.window_distribution()
        )
        baseline = combined.window_distribution()

        for sql in drifted_part:
            combined.observe(sql)
        shards = self._shard(baseline_part + drifted_part, 3, window=96)
        merged = shards[0].merge(shards[1]).merge(shards[2])
        detector = DriftDetector()
        single = detector.compare(baseline, combined.window_distribution())
        sharded = detector.compare(baseline, merged.window_distribution())
        assert sharded.drifted == single.drifted
        assert sharded.total_variation == pytest.approx(
            single.total_variation
        )
        assert sharded.new_templates == single.new_templates
        assert sharded.vanished_templates == single.vanished_templates

    def test_merge_sums_counts_and_rates(self):
        stream = drifting_stream(30) + [
            "UPDATE people SET age = 5 WHERE person_id = 1",
            "UPDATE people SET age = 6 WHERE person_id = 2",
        ]
        combined = WorkloadMonitor(window_size=64)
        for sql in stream:
            combined.observe(sql)
        a, b = self._shard(stream, 2)
        merged = a.merge(b)
        assert merged.observed == combined.observed
        assert merged.window_counts == combined.window_counts
        assert merged.update_rates() == pytest.approx(combined.update_rates())

    def test_merge_unions_quarantine(self):
        a = WorkloadMonitor(window_size=8)
        b = WorkloadMonitor(window_size=8)
        ta = a.observe(_age_q(1))
        tb = b.observe(_height_q(1))
        a.quarantine(ta.fingerprint, "bad shape")
        b.quarantine(tb.fingerprint, "worse shape")
        merged = a.merge(b)
        assert merged.quarantined == {ta.fingerprint, tb.fingerprint}
        assert merged.quarantine_reasons[ta.fingerprint] == "bad shape"

    def test_merge_refuses_decay_mismatch(self):
        a = WorkloadMonitor(window_size=8, decay=0.9)
        b = WorkloadMonitor(window_size=8, decay=0.99)
        with pytest.raises(ReproError, match="decay"):
            a.merge(b)

    def test_merge_does_not_mutate_inputs(self):
        a, b = self._shard(stable_stream(20), 2)
        before_a = a.window_counts
        before_b = b.window_counts
        a.merge(b)
        assert a.window_counts == before_a
        assert b.window_counts == before_b

    def test_clear_window_keeps_templates_and_profile(self):
        monitor = WorkloadMonitor(window_size=16)
        for sql in stable_stream(12):
            monitor.observe(sql)
        templates = set(monitor.templates)
        profile = monitor.profile_distribution()
        monitor.clear_window()
        assert monitor.window_distribution() == {}
        assert monitor.window_counts == {}
        assert set(monitor.templates) == templates
        assert monitor.profile_distribution() == pytest.approx(profile)


# ----------------------------------------------------------------------
# The controller: closed loop, invariant, health gate, quarantine


class InvariantListener:
    """Asserts the one-in-transition invariant at every event."""

    def __init__(self, controller=None):
        self.controller = controller
        self.events = []

    def __call__(self, event):
        self.events.append(event)
        controller = self.controller
        if controller is None:
            return
        quarantined = {
            rt.replica_id
            for rt in controller.replicas
            if rt.status == "quarantined"
        }
        transitioning = controller.router.excluded - quarantined
        assert len(transitioning) <= 1, (
            f"two replicas out of rotation at event {event}: "
            f"{sorted(transitioning)}"
        )


class TestClosedLoop:
    def test_event_log_is_a_bounded_ring_with_exact_counts(self):
        listener = InvariantListener()
        controller = make_controller(fleet_databases(1), listener=listener)
        for i in range(10_003):
            controller._emit("degraded", detail=str(i))
        # A daemon's log keeps the newest 10 000; the totals stay exact.
        assert isinstance(controller.events, list)
        assert len(controller.events) == 10_000
        assert controller.events == listener.events[-10_000:]
        assert controller.events[0].detail == "3"
        assert controller.event_counts["degraded"] == 10_003

    def test_drift_triggers_retune_and_rolling_rollout(self):
        listener = InvariantListener()
        controller = make_controller(
            fleet_databases(2), warmup=16, listener=listener
        )
        listener.controller = controller
        for sql in drifting_stream(96):
            controller.observe(sql)
        counts = controller.event_counts
        assert counts["re-tuned"] >= 2  # first tune + the drift re-tune
        assert counts["drifted"] >= 1
        assert counts["rollout-finished"] == counts["rollout-started"]
        assert counts["rolled-back"] == 0
        assert controller.phase == "serving"
        assert controller.in_transition is None
        assert controller.router.excluded == frozenset()
        # Designs are journaled promises AND materialized reality.
        for rt in controller.replicas:
            materialized = {
                index_signature(ix)
                for ix in rt.database.catalog.indexes()
                if ix.name.startswith("idx_") and rt.database.has_btree(ix.name)
            }
            assert {index_signature(ix) for ix in rt.design} == materialized

    def test_statements_route_to_every_serving_replica(self):
        controller = make_controller(fleet_databases(3), warmup=10_000)
        routed = {controller.observe(sql) for sql in stable_stream(30)}
        assert routed == {0, 1, 2}

    def test_single_replica_fleet_serves_and_rolls_out(self):
        controller = make_controller(fleet_databases(1), warmup=16)
        for sql in drifting_stream(64):
            controller.observe(sql)
        assert controller.phase == "serving"
        assert controller.event_counts["rollout-finished"] >= 1


class TestHealthGate:
    def _primed(self, tmp_path, n=2, **knobs):
        """A fleet serving a stable stream with a good design applied."""
        databases = fleet_databases(n)
        controller = make_controller(
            databases,
            state_path=str(tmp_path / "fleet.state"),
            warmup=10_000,  # drift never interferes; rollouts are manual
            regression_tolerance=0.05,
            **knobs,
        )
        for sql in stable_stream(32):
            controller.observe(sql)
        good = [(AGE_INDEX, HEIGHT_INDEX)] * n
        controller.rollout(good)
        return controller, good

    def test_stable_design_never_rolls_back(self, tmp_path):
        controller, good = self._primed(tmp_path)
        for sql in stable_stream(96):
            controller.observe(sql)
        assert controller.event_counts["regressed"] == 0
        assert controller.event_counts["rolled-back"] == 0
        assert controller.phase == "serving"
        # Probation expired cleanly on every replica.
        assert all(rt.probation is None for rt in controller.replicas)

    def test_sustained_regression_rolls_back_that_replica_only(
        self, tmp_path
    ):
        controller, good = self._primed(tmp_path)
        for sql in stable_stream(96):
            controller.observe(sql)
        # Inject a regressing design on replica 0 only: dropping both
        # indexes regresses every window against the replaced design.
        bad = [()] + [good[i] for i in range(1, len(good))]
        controller.rollout(bad)
        for sql in stable_stream(96):
            controller.observe(sql)
        assert controller.phase == "frozen"
        assert controller.frozen
        counts = controller.event_counts
        assert counts["regressed"] >= controller.regression_windows
        assert counts["rolled-back"] == 1
        assert counts["frozen"] == 1
        victim = controller.replicas[0]
        assert victim.status == "rolled-back"
        assert {index_signature(ix) for ix in victim.design} == {
            index_signature(ix) for ix in good[0]
        }
        # The survivors keep their (unchanged) designs and rotation.
        for rt in controller.replicas[1:]:
            assert rt.status == "serving"
            assert {index_signature(ix) for ix in rt.design} == {
                index_signature(ix) for ix in good[1]
            }

    def test_frozen_fleet_keeps_serving_but_never_retunes(self, tmp_path):
        controller, good = self._primed(tmp_path, regression_windows=1)
        for sql in stable_stream(48):
            controller.observe(sql)
        controller.rollout([()] * 2)
        for sql in stable_stream(64):
            controller.observe(sql)
        assert controller.frozen
        retunes_frozen = controller.event_counts["re-tuned"]
        for sql in drifting_stream(64):
            controller.observe(sql)  # keeps routing without raising
        assert controller.event_counts["re-tuned"] == retunes_frozen
        with pytest.raises(ReproError, match="frozen"):
            controller.rollout([good[0]] * 2)

    def test_consecutive_requirement_resets_on_clean_window(self, tmp_path):
        controller, good = self._primed(
            tmp_path, regression_windows=3, probation_windows=4
        )
        for sql in stable_stream(64):
            controller.observe(sql)
        # One regressed window cannot confirm when later windows are
        # clean: regression counting is consecutive, not cumulative.
        runtime = controller.replicas[0]
        runtime.probation = {
            "old": [],
            "left": 4,
            "regressions": controller.regression_windows - 1,
        }
        for sql in stable_stream(32):
            controller.observe(sql)
        assert controller.event_counts["rolled-back"] == 0
        assert controller.phase == "serving"


class TestFaultPoints:
    def test_faulted_apply_quarantines_replica_not_fleet(self, tmp_path):
        databases = fleet_databases(3)
        listener = InvariantListener()
        controller = make_controller(
            databases,
            state_path=str(tmp_path / "fleet.state"),
            warmup=10_000,
            listener=listener,
        )
        listener.controller = controller
        for sql in stable_stream(24):
            controller.observe(sql)
        with faults.injecting(FaultInjector.from_spec("replica.apply:1")):
            controller.rollout([(AGE_INDEX,)] * 3)
        assert controller.phase == "serving"  # the fleet survived
        counts = controller.event_counts
        assert counts["quarantined"] == 1
        assert counts["rollout-finished"] == 1
        assert controller.replicas[0].status == "quarantined"
        assert controller.replicas[0].design == ()
        # Quarantine is degraded routing, permanently.
        assert controller.router.excluded == frozenset({0})
        for rt in controller.replicas[1:]:
            assert rt.status == "serving"
            assert len(rt.design) == 1
        routed = {controller.observe(sql) for sql in stable_stream(20)}
        assert 0 not in routed

    def test_validate_window_fault_degrades_not_regresses(self, tmp_path):
        controller = make_controller(
            fleet_databases(2),
            state_path=str(tmp_path / "fleet.state"),
            warmup=10_000,
        )
        with faults.injecting(FaultInjector.from_spec("validate.window:*")):
            for sql in stable_stream(24):
                controller.observe(sql)
            controller.rollout([(AGE_INDEX,)] * 2)
            for sql in stable_stream(64):
                controller.observe(sql)
        counts = controller.event_counts
        assert counts["degraded"] > 0
        assert counts["regressed"] == 0
        assert counts["rolled-back"] == 0
        assert controller.phase == "serving"
        # Skipped windows count neither way: probation never advances.
        assert all(
            rt.probation is not None and rt.probation["regressions"] == 0
            for rt in controller.replicas
        )

    def test_retune_degradations_become_events(self):
        # A re-tune that quarantines a template reports it, as the
        # static fleet command does, instead of dropping the record.
        controller = make_controller(fleet_databases(2), warmup=16)
        with faults.injecting(FaultInjector.from_spec("inum.build:%4")):
            for sql in drifting_stream(96):
                controller.observe(sql)
        assert controller.event_counts["degraded"] > 0
        templates = [
            t.template_id for t in controller.merged_monitor().templates.values()
        ]
        named = [
            event.detail for event in controller.events
            if event.kind == "degraded"
            and any(f"inum.build[{name}]" in event.detail for name in templates)
        ]
        assert named

    def test_rollout_journal_fault_propagates_like_a_crash(self, tmp_path):
        controller = make_controller(
            fleet_databases(2),
            state_path=str(tmp_path / "fleet.state"),
            warmup=10_000,
            fault_injector=FaultInjector.from_spec("rollout.journal:1"),
        )
        for sql in stable_stream(16):
            controller.observe(sql)
        with pytest.raises(FaultInjected):
            controller.rollout([(AGE_INDEX,)] * 2)

    def test_controller_injector_reaches_journal_writes(self, tmp_path):
        # The store holds no injector of its own: the controller's
        # scope still covers every journal write it drives.
        injector = FaultInjector.from_spec("rollout.journal:1")
        controller = make_controller(
            fleet_databases(2),
            store=FileStateStore(str(tmp_path / "fleet.state")),
            warmup=10_000,
            fault_injector=injector,
        )
        for sql in stable_stream(16):
            controller.observe(sql)
        with pytest.raises(FaultInjected) as excinfo:
            controller.rollout([(AGE_INDEX,)] * 2)
        assert excinfo.value.point == "rollout.journal"
        assert injector.fired("rollout.journal") == 1


# ----------------------------------------------------------------------
# Satellite 4 (tentpole acceptance): SIGKILL sweep over the rollout


class TestKillResumeSweep:
    GOOD = [(AGE_INDEX, HEIGHT_INDEX)] * 2
    # (steps, controller knobs): a step is a statement, or a list of
    # per-replica designs rolled out by hand.
    SCHEDULES = {
        # Drift-driven re-tunes roll out twice.
        "drift": (drifting_stream(96), {"warmup": 16}),
        # TestHealthGate's schedule: a good design, then one that
        # regresses replica 0, which the health gate rolls back during
        # the last stretch.
        "rollback": (
            stable_stream(32)
            + [GOOD]
            + stable_stream(96)
            + [[(), GOOD[1]]]
            + stable_stream(96),
            {"warmup": 10_000, "regression_tolerance": 0.05},
        ),
    }

    def _drive(
        self, databases, state_path, injector=None, schedule="drift", steps=None
    ):
        all_steps, knobs = self.SCHEDULES[schedule]
        controller = make_controller(
            databases, state_path=state_path, fault_injector=injector, **knobs
        )
        resume_from = controller.position if controller.resumed else 0
        position = 0
        for step in all_steps if steps is None else steps:
            if isinstance(step, str):
                position += 1
                if position > resume_from:
                    controller.observe(step)
            elif position > resume_from:
                # A rollout at or before the resume point already ran:
                # the sweep kills only after the last one.
                controller.rollout(step)
        return controller

    def _terminal(self, controller):
        return (
            controller.phase,
            [rt.status for rt in controller.replicas],
            [
                sorted(index_signature(ix) for ix in rt.design)
                for rt in controller.replicas
            ],
            [db_fingerprint(rt.database) for rt in controller.replicas],
        )

    def _clean_run(self, tmp_path, label="clean", schedule="drift"):
        idle = FaultInjector()
        state = str(tmp_path / f"{label}.state")
        controller = self._drive(fleet_databases(2), state, idle, schedule)
        return controller, idle

    def _writes_through_last_rollout(self, tmp_path, schedule, point):
        steps, _knobs = self.SCHEDULES[schedule]
        cut = max(
            (i + 1 for i, step in enumerate(steps) if not isinstance(step, str)),
            default=0,
        )
        idle = FaultInjector()
        state = str(tmp_path / f"prefix-{point}.state")
        self._drive(fleet_databases(2), state, idle, schedule, steps[:cut])
        return idle.checks(point)

    def test_clean_run_exercises_the_fault_surface(self, tmp_path):
        controller, idle = self._clean_run(tmp_path)
        assert controller.event_counts["rollout-finished"] >= 2
        assert idle.checks("rollout.journal") >= 6
        assert idle.checks("journal.write") >= 4
        assert idle.checks("replica.apply") >= 2
        assert idle.checks("validate.window") >= 1

    @pytest.mark.parametrize(
        "schedule, point",
        [
            pytest.param("drift", "rollout.journal", id="rollout.journal"),
            pytest.param("drift", "journal.write", id="journal.write"),
            pytest.param(
                "rollback", "rollout.journal", id="rollback-rollout.journal"
            ),
            pytest.param(
                "rollback", "journal.write", id="rollback-journal.write"
            ),
        ],
    )
    def test_kill_at_every_journal_write_converges(
        self, tmp_path, schedule, point
    ):
        clean, idle = self._clean_run(tmp_path, schedule=schedule)
        expected = self._terminal(clean)
        if schedule == "rollback":
            assert clean.frozen and clean.event_counts["rolled-back"] == 1
        first = self._writes_through_last_rollout(tmp_path, schedule, point) + 1
        writes = idle.checks(point)
        assert writes >= first
        for k in range(first, writes + 1):
            databases = fleet_databases(2)
            state = str(tmp_path / f"kill-{point}-{k}.state")
            try:
                self._drive(
                    databases,
                    state,
                    FaultInjector.from_spec(f"{point}:{k}"),
                    schedule,
                )
                # Later checks may not be reached if an earlier fire
                # changed control flow; a fault-free completion is the
                # clean run and must already match.
            except FaultInjected:
                pass
            resumed = self._drive(databases, state, schedule=schedule)
            assert self._terminal(resumed) == expected, (
                f"kill at {point} #{k} diverged after resume"
            )

    def test_resume_from_scratch_rematerializes_designs(self, tmp_path):
        # Cross-process shape: the resumed controller gets *fresh*
        # databases (nothing materialized) and must rebuild standing
        # designs from the journaled envelope alone.
        clean, _ = self._clean_run(tmp_path, label="xproc")
        state = str(tmp_path / "xproc.state")
        assert resilience_state.has_state(state)
        resumed = make_controller(
            fleet_databases(2), state_path=state, warmup=16
        )
        assert resumed.resumed
        resumed.resume()
        assert self._terminal(resumed)[:2] == self._terminal(clean)[:2]
        for rt_clean, rt_res in zip(clean.replicas, resumed.replicas):
            assert db_fingerprint(rt_res.database) == db_fingerprint(
                rt_clean.database
            )

    def test_state_envelope_versioned_and_checksummed(self, tmp_path):
        controller, _ = self._clean_run(tmp_path, label="env")
        state_path = str(tmp_path / "env.state")
        state, source = resilience_state.load_state(state_path)
        assert source == "primary"
        assert state["version"] == FLEET_STATE_VERSION
        assert state["router"]["version"] == ROUTER_STATE_VERSION
        bad = dict(state, n_replicas=5)
        resilience_state.dump_state(state_path, bad)
        with pytest.raises(ReproError, match="replicas"):
            make_controller(
                fleet_databases(2), state_path=state_path, warmup=16
            )


# ----------------------------------------------------------------------
# CLI surface


class TestCli:
    def test_fleet_serve_cli_smoke(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        stream = tmp_path / "stream.sql"
        stream.write_text(";\n".join(drifting_stream(64)) + ";\n")
        state = tmp_path / "fleet.state"
        code = cli_main(
            [
                "--db", "sdss:800",
                "fleet", "--serve",
                "--replicas", "2",
                "--stream", str(stream),
                "--state", str(state),
                "--budget-mb", "4",
                "--window", "16",
                "--check-interval", "8",
                "--warmup", "16",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Stream done" in out
        assert "Replica 0" in out and "Replica 1" in out
        assert resilience_state.has_state(str(state))

    def test_exit_codes_are_distinct(self):
        from repro.cli import (
            EXIT_APPLY_CONFLICT,
            EXIT_ROLLOUT_FROZEN,
            EXIT_STREAM_LOST,
        )

        codes = {EXIT_STREAM_LOST, EXIT_APPLY_CONFLICT, EXIT_ROLLOUT_FROZEN}
        assert len(codes) == 3
        assert EXIT_ROLLOUT_FROZEN == 5


# ----------------------------------------------------------------------
# Operator controls: thaw (acknowledge a frozen fleet) and per-replica
# quarantine release


class TestThawAndRelease:
    def _frozen(self, tmp_path, **knobs):
        databases = fleet_databases(2)
        controller = make_controller(
            databases,
            state_path=str(tmp_path / "fleet.state"),
            warmup=10_000,
            regression_tolerance=0.05,
            regression_windows=1,
            **knobs,
        )
        for sql in stable_stream(48):
            controller.observe(sql)
        good = [(AGE_INDEX, HEIGHT_INDEX)] * 2
        controller.rollout(good)
        for sql in stable_stream(48):
            controller.observe(sql)
        controller.rollout([()] * 2)  # regressing design on every replica
        for sql in stable_stream(64):
            controller.observe(sql)
        assert controller.frozen
        return controller, good

    def test_thaw_returns_the_regressed_record_and_resumes(self, tmp_path):
        controller, good = self._frozen(tmp_path)
        record = controller.regressed
        assert record is not None
        assert set(record) >= {"replica", "design", "position"}
        info = controller.thaw()
        assert info == record
        assert controller.phase == "serving"
        assert controller.regressed is None
        assert controller.event_counts["thawed"] == 1
        # Acknowledging re-arms the rollout machinery in-process.
        controller.rollout([good[0]] * 2)
        assert controller.event_counts["rollout-finished"] >= 3

    def test_thaw_requires_a_frozen_fleet(self, tmp_path):
        controller = make_controller(fleet_databases(2), warmup=10_000)
        with pytest.raises(ReproError, match="not frozen"):
            controller.thaw()

    def test_regressed_record_survives_save_restore(self, tmp_path):
        controller, _ = self._frozen(tmp_path)
        resumed = make_controller(
            fleet_databases(2),
            state_path=str(tmp_path / "fleet.state"),
            warmup=10_000,
        )
        assert resumed.resumed
        resumed.resume()
        assert resumed.frozen
        assert resumed.regressed == controller.regressed
        info = resumed.thaw()
        assert info is not None
        assert resumed.phase == "serving"

    def test_frozen_envelope_without_a_record_resumes_frozen(self, tmp_path):
        controller, _ = self._frozen(tmp_path)
        state = str(tmp_path / "fleet.state")
        envelope = controller.save_state()
        envelope["regressed"] = None
        FileStateStore(state).write("", envelope)
        resumed = make_controller(
            fleet_databases(2), state_path=state, warmup=10_000
        )
        assert resumed.phase == "frozen" and resumed.regressed is None
        assert resumed.thaw() is None
        assert resumed.phase == "serving"

    def test_release_returns_replica_to_rotation(self, tmp_path):
        controller = make_controller(
            fleet_databases(3),
            state_path=str(tmp_path / "fleet.state"),
            warmup=10_000,
        )
        for sql in stable_stream(24):
            controller.observe(sql)
        with faults.injecting(FaultInjector.from_spec("replica.apply:1")):
            controller.rollout([(AGE_INDEX,)] * 3)
        assert controller.replicas[0].status == "quarantined"
        assert controller.router.excluded == frozenset({0})
        controller.release(0)
        runtime = controller.replicas[0]
        assert runtime.status == "serving"
        assert runtime.probation is None
        assert runtime.baseline is None
        assert controller.router.excluded == frozenset()
        assert controller.event_counts["released"] == 1
        # The released replica takes the next rollout like any other.
        controller.rollout([(AGE_INDEX, HEIGHT_INDEX)] * 3)
        assert controller.replicas[0].status == "serving"
        assert len(controller.replicas[0].design) == 2

    def test_release_rejects_wrong_states(self, tmp_path):
        controller = make_controller(fleet_databases(2), warmup=10_000)
        with pytest.raises(ReproError, match="no replica"):
            controller.release(5)
        with pytest.raises(ReproError, match="not quarantined"):
            controller.release(0)
