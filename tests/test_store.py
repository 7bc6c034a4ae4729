"""The pluggable fenced state store (PR 10 tentpole).

Acceptance pinned here:

* both backends round-trip keyed slots, and the file backend writes
  exactly the ``dump_state`` files, loadable by and from every earlier
  version (old state directories keep loading, new ones load with old
  code);
* fencing — a writer holding a superseded lease epoch gets
  ``StaleLeaseError`` *before any slot is touched* and cannot corrupt
  the new owner's journal;
* transient store faults (``store.read``/``store.write``/
  ``lease.acquire``, plain ``OSError``) are absorbed by bounded retry,
  while caller crash points keep their kill-mid-write semantics;
* **host-loss convergence** — SIGKILL at every journal write, then a
  resume with *fresh databases and zero local state files besides the
  store's dsn*, lands on a terminal fleet byte-identical to an
  uninterrupted run.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FaultInjected,
    ReproError,
    StaleLeaseError,
    StateCorruptError,
)
from repro.fleet.router import Router
from repro.resilience import faults
from repro.resilience import state as resilience_state
from repro.resilience import store as store_module
from repro.resilience.apply import ApplyExecutor
from repro.resilience.faults import FAULT_POINT_DOCS, FaultInjector
from repro.resilience.store import (
    LEASE_KEY,
    STORE_TABLE,
    DatabaseStateStore,
    FileStateStore,
    StateStore,
    store_from_spec,
    torn_slot_paths,
)
from repro.storage.database import Database

from tests.conftest import SERVE_ARGS, TUNE_ARGS, make_people_db, run_main
from tests.reference import legacy_dump_state, legacy_load_verified
from tests.test_fleet_serve import (
    AGE_INDEX,
    HEIGHT_INDEX,
    db_fingerprint,
    drifting_stream,
    fleet_databases,
    make_controller,
)


@pytest.fixture(autouse=True)
def _ambient_isolation():
    faults.reset_ambient()
    yield
    faults.reset_ambient()


STATE_A = {"version": 1, "payload": "alpha"}
STATE_B = {"version": 1, "payload": "beta"}


def _tear(path: str) -> None:
    with open(path, "w") as handle:
        handle.write("{ torn mid-write")


# ----------------------------------------------------------------------
# File backend: slots, paths, byte-compat, .bak ladder


class TestFileStateStore:
    def test_round_trip_and_sources(self, tmp_path):
        store = FileStateStore(str(tmp_path / "STATE"))
        assert not store.exists("")
        store.write("", STATE_A)
        state, source = store.read("")
        assert state == STATE_A
        assert source == "primary"
        assert store.exists("")

    def test_key_to_path_mapping_matches_legacy_layout(self, tmp_path):
        base = str(tmp_path / "STATE")
        store = FileStateStore(base)
        assert store.path_for("") == base
        assert store.path_for("apply") == f"{base}.apply"
        # The fleet's per-replica journal slots land on exactly the
        # paths the pre-store FleetController used.
        assert store.path_for("r0.apply") == f"{base}.r0.apply"
        assert store.lease_path == f"{base}.lease"

    def test_files_byte_identical_to_dump_state(self, tmp_path):
        legacy = str(tmp_path / "legacy.json")
        via_store = str(tmp_path / "store.json")
        resilience_state.dump_state(legacy, STATE_A)
        FileStateStore(via_store).write("", STATE_A)
        assert open(legacy, "rb").read() == open(via_store, "rb").read()

    def test_old_files_load_new_files_load_old(self, tmp_path):
        path = str(tmp_path / "STATE")
        resilience_state.dump_state(path, STATE_A)
        state, _source = FileStateStore(path).read("")
        assert state == STATE_A
        FileStateStore(path).write("", STATE_B)
        state, source = resilience_state.load_state(path)
        assert (state, source) == (STATE_B, "primary")

    def test_torn_primary_falls_back_to_rotated_backup(self, tmp_path):
        store = FileStateStore(str(tmp_path / "STATE"))
        store.write("", STATE_A)
        store.write("", STATE_B)  # rotates A's envelope to .bak
        _tear(store.path_for(""))
        state, source = store.read("")
        assert (state, source) == (STATE_A, "backup")

    def test_slots_are_independent(self, tmp_path):
        store = FileStateStore(str(tmp_path / "STATE"))
        store.write("", STATE_A)
        store.write("r1.apply", STATE_B)
        assert store.read("")[0] == STATE_A
        assert store.read("r1.apply")[0] == STATE_B
        assert not store.exists("r0.apply")

    def test_empty_base_path_rejected(self):
        with pytest.raises(ReproError):
            FileStateStore("")


# ----------------------------------------------------------------------
# Database backend: in-database slots, fresh-host attach, mirror table


class TestDatabaseStateStore:
    def test_round_trip(self, tmp_path):
        db = make_people_db(rows=60)
        store = DatabaseStateStore(db, str(tmp_path / "dbstate.json"))
        assert not store.exists("")
        store.write("", STATE_A)
        store.write("apply", STATE_B)
        assert store.read("")[0] == STATE_A
        assert store.read("apply")[0] == STATE_B

    def test_fresh_host_resumes_from_dsn_alone(self, tmp_path):
        dsn = str(tmp_path / "dbstate.json")
        store = DatabaseStateStore(make_people_db(rows=60), dsn)
        store.write("", STATE_A)
        # Host lost: a brand-new database object and store instance,
        # nothing shared in memory, only the dsn file survives.
        fresh = DatabaseStateStore(make_people_db(rows=60), dsn)
        assert fresh.exists("")
        assert fresh.read("")[0] == STATE_A

    def test_state_lives_in_a_real_table(self, tmp_path):
        db = make_people_db(rows=60)
        store = DatabaseStateStore(db, str(tmp_path / "dbstate.json"))
        store.write("", STATE_A)
        assert db.has_relation(STORE_TABLE)
        relation = db.relation(STORE_TABLE)
        keys = list(relation.heap.column("skey"))
        payloads = list(relation.heap.column("payload"))
        assert keys == [""]
        assert json.loads(payloads[0]) == STATE_A

    def test_attach_hydrates_mirror_from_dsn(self, tmp_path):
        dsn = str(tmp_path / "dbstate.json")
        DatabaseStateStore(make_people_db(rows=60), dsn).write("", STATE_A)
        fresh_db = make_people_db(rows=60)
        DatabaseStateStore(fresh_db, dsn)
        keys = list(fresh_db.relation(STORE_TABLE).heap.column("skey"))
        assert keys == [""]

    def test_writes_do_not_churn_the_catalog(self, tmp_path):
        # replace_rows skips the catalog bump and re-ANALYZE on
        # purpose: journal writes must not storm the planner's
        # catalog-versioned caches.
        db = make_people_db(rows=60)
        store = DatabaseStateStore(db, str(tmp_path / "dbstate.json"))
        version = db.catalog.cache_key
        for i in range(3):
            store.write("", {"gen": i})
        assert db.catalog.cache_key == version

    def test_torn_dsn_pair_reads_as_cold(self, tmp_path):
        dsn = str(tmp_path / "dbstate.json")
        store = DatabaseStateStore(make_people_db(rows=60), dsn)
        store.write("", STATE_A)
        _tear(dsn)
        _tear(resilience_state.backup_path(dsn))
        fresh = DatabaseStateStore(make_people_db(rows=60), dsn)
        assert not fresh.exists("")
        with pytest.raises(StateCorruptError):
            fresh.read("")

    def test_empty_dsn_rejected(self):
        with pytest.raises(ReproError):
            DatabaseStateStore(make_people_db(rows=60), "")


# ----------------------------------------------------------------------
# Fencing: epochs, StaleLeaseError, journal integrity under a stale
# writer (tentpole acceptance)


def _file_store(tmp_path, **kw):
    return FileStateStore(str(tmp_path / "STATE"), **kw)


def _db_store(tmp_path, **kw):
    return DatabaseStateStore(
        make_people_db(rows=60), str(tmp_path / "dbstate.json"), **kw
    )


@pytest.mark.parametrize("make_store", [_file_store, _db_store])
class TestFencing:
    def test_acquire_bumps_epoch(self, tmp_path, make_store):
        first = make_store(tmp_path)
        assert first.epoch is None
        assert first.acquire(owner="a") == 1
        assert first.epoch == 1
        second = make_store(tmp_path)
        assert second.acquire(owner="b") == 2
        assert first.epoch == 1  # the old token does not move

    def test_stale_writer_rejected_and_cannot_corrupt(
        self, tmp_path, make_store
    ):
        old = make_store(tmp_path)
        old.acquire(owner="old")
        old.write("", STATE_A)
        new = make_store(tmp_path)
        new.acquire(owner="new")
        new.write("", STATE_B)
        with pytest.raises(StaleLeaseError) as excinfo:
            old.write("", {"payload": "clobber"})
        assert "new" in str(excinfo.value)
        # The new owner's journal is untouched by the rejected write.
        assert new.read("")[0] == STATE_B
        assert make_store(tmp_path).read("")[0] == STATE_B

    def test_never_acquired_writer_fenced_once_lease_exists(
        self, tmp_path, make_store
    ):
        make_store(tmp_path).acquire(owner="daemon")
        bystander = make_store(tmp_path)
        with pytest.raises(StaleLeaseError):
            bystander.write("", STATE_A)

    def test_unfenced_legacy_mode_without_any_lease(
        self, tmp_path, make_store
    ):
        store = make_store(tmp_path)
        store.write("", STATE_A)  # no acquire anywhere: legacy writer
        assert store.read("")[0] == STATE_A

    def test_reacquire_unfences_the_same_instance(self, tmp_path, make_store):
        old = make_store(tmp_path)
        old.acquire(owner="old")
        make_store(tmp_path).acquire(owner="new")
        with pytest.raises(StaleLeaseError):
            old.write("", STATE_A)
        old.acquire(owner="old-again")
        old.write("", STATE_A)
        assert old.read("")[0] == STATE_A


# ----------------------------------------------------------------------
# Failure semantics: transient retry vs crash points vs stale leases


class TestRetrySemantics:
    def test_new_fault_points_documented(self):
        for point in ("store.read", "store.write", "lease.acquire"):
            assert point in FAULT_POINT_DOCS

    @pytest.mark.parametrize("point", ["store.read", "store.write"])
    def test_single_transient_fault_absorbed(self, tmp_path, point):
        injector = FaultInjector.from_spec(f"{point}:1")
        store = FileStateStore(
            str(tmp_path / "STATE"), fault_injector=injector, backoff=0.0
        )
        if point == "store.read":
            FileStateStore(str(tmp_path / "STATE")).write("", STATE_A)
            assert store.read("")[0] == STATE_A
        else:
            store.write("", STATE_A)
            assert store.read("")[0] == STATE_A
        assert injector.fired(point) == 1

    def test_persistent_fault_exhausts_the_retry_budget(self, tmp_path):
        injector = FaultInjector.from_spec("store.write:*")
        store = FileStateStore(
            str(tmp_path / "STATE"),
            fault_injector=injector,
            retries=2,
            backoff=0.0,
        )
        with pytest.raises(FaultInjected):
            store.write("", STATE_A)
        # retries=2 means three attempts total, then propagate.
        assert injector.fired("store.write") == 3
        assert not store.exists("")

    def test_lease_acquire_fault_retried(self, tmp_path):
        injector = FaultInjector.from_spec("lease.acquire:1")
        store = FileStateStore(
            str(tmp_path / "STATE"), fault_injector=injector, backoff=0.0
        )
        assert store.acquire(owner="a") == 1
        assert injector.fired("lease.acquire") == 1

    def test_oserror_retried(self, tmp_path):
        class Flaky(FileStateStore):
            failures = 2

            def _write_slot(self, key, state, fault_point):
                if self.failures:
                    self.failures -= 1
                    raise OSError("connection blip")
                super()._write_slot(key, state, fault_point)

        store = Flaky(str(tmp_path / "STATE"), retries=2, backoff=0.0)
        store.write("", STATE_A)
        assert store.read("")[0] == STATE_A

    def test_caller_crash_point_never_retried(self, tmp_path):
        # journal.write models the *writer* crashing mid-write: it must
        # fire once, tear the primary, and propagate — a retry would
        # defeat every kill/resume test built on it.
        injector = FaultInjector.from_spec("journal.write:1")
        store = FileStateStore(
            str(tmp_path / "STATE"), fault_injector=injector, backoff=0.0
        )
        store.write("", STATE_A)
        store.write("", STATE_A)  # second write rotates a .bak out
        with pytest.raises(FaultInjected):
            store.write("", STATE_B, fault_point="journal.write")
        assert injector.fired("journal.write") == 1
        state, source = store.read("")
        assert (state, source) == (STATE_A, "backup")

    def test_stale_lease_never_retried(self, tmp_path):
        calls = {"n": 0}

        class Counting(FileStateStore):
            def check_lease(self):
                calls["n"] += 1
                super().check_lease()

        old = Counting(str(tmp_path / "STATE"), retries=5, backoff=0.0)
        old.acquire(owner="old")
        FileStateStore(str(tmp_path / "STATE")).acquire(owner="new")
        calls["n"] = 0
        with pytest.raises(StaleLeaseError):
            old.write("", STATE_A)
        assert calls["n"] == 1


# ----------------------------------------------------------------------
# Spec parsing and chaos plumbing


class TestStoreFromSpec:
    def test_file_scheme_and_bare_path(self, tmp_path):
        for spec in (f"file:{tmp_path}/S", f"{tmp_path}/S"):
            store = store_from_spec(spec)
            assert isinstance(store, FileStateStore)
            assert store.base_path == f"{tmp_path}/S"

    def test_db_scheme(self, tmp_path):
        db = make_people_db(rows=60)
        store = store_from_spec(f"db:{tmp_path}/D", database=db)
        assert isinstance(store, DatabaseStateStore)
        assert store.dsn == f"{tmp_path}/D"
        defaulted = store_from_spec("db:", database=db)
        assert defaulted.dsn == "repro-dbstate.json"

    def test_errors(self):
        with pytest.raises(ReproError):
            store_from_spec("db:")  # no database to attach to
        with pytest.raises(ReproError):
            store_from_spec("file:")
        with pytest.raises(ReproError):
            store_from_spec("s3:bucket/key")

    def test_torn_slot_paths(self, tmp_path):
        fstore = FileStateStore(str(tmp_path / "S"))
        assert torn_slot_paths(fstore, "apply") == (
            f"{tmp_path}/S.apply",
            resilience_state.backup_path(f"{tmp_path}/S.apply"),
        )
        dstore = _db_store(tmp_path)
        primary, backup = torn_slot_paths(dstore, "apply")
        assert primary == dstore.dsn
        assert backup == resilience_state.backup_path(dstore.dsn)


# ----------------------------------------------------------------------
# The apply journal through a store: kill mid-journal, resume on a
# fresh process attached to the same dsn


class TestApplyJournalViaStore:
    def _design(self):
        return (AGE_INDEX, HEIGHT_INDEX)

    def test_journaled_apply_round_trip(self, tmp_path):
        db = make_people_db(rows=120)
        store = DatabaseStateStore(db, str(tmp_path / "dbstate.json"))
        report = ApplyExecutor(db, store=store, journal_key="apply").apply(
            self._design()
        )
        assert len(report.built) == 2
        assert report.phase == "committed"

    def test_kill_at_journal_write_resumes_via_fresh_store(self, tmp_path):
        dsn = str(tmp_path / "dbstate.json")
        db = make_people_db(rows=120)
        injector = FaultInjector.from_spec("journal.write:1")
        store = DatabaseStateStore(db, dsn, fault_injector=injector)
        with pytest.raises(FaultInjected):
            ApplyExecutor(
                db, store=store, journal_key="apply", fault_injector=injector
            ).apply(self._design())
        # Same database, new process: a fresh store instance attached
        # to the same dsn picks the journal up and finishes the apply.
        resumed_store = DatabaseStateStore(db, dsn)
        report = ApplyExecutor(
            db, store=resumed_store, journal_key="apply"
        ).apply(self._design())
        assert report.phase == "committed"
        clean_db = make_people_db(rows=120)
        clean = ApplyExecutor(
            clean_db,
            store=DatabaseStateStore(clean_db, str(tmp_path / "clean.json")),
            journal_key="apply",
        ).apply(self._design())
        assert db_fingerprint(db) == db_fingerprint(clean_db)
        assert sorted(report.built + report.skipped) == sorted(
            clean.built + clean.skipped
        )

    def test_stale_lease_blocks_the_journal_writer(self, tmp_path):
        dsn = str(tmp_path / "dbstate.json")
        db = make_people_db(rows=120)
        store = DatabaseStateStore(db, dsn)
        store.acquire(owner="old-daemon")
        executor = ApplyExecutor(db, store=store, journal_key="apply")
        DatabaseStateStore(make_people_db(rows=60), dsn).acquire(owner="new")
        with pytest.raises(StaleLeaseError):
            executor.apply(self._design())
        # Nothing was journaled and nothing was built.
        assert not DatabaseStateStore(make_people_db(rows=60), dsn).exists(
            "apply"
        )
        assert not db.catalog.index_names


# ----------------------------------------------------------------------
# Host-loss convergence (tentpole acceptance): kill at any journal
# write, lose every local file except the dsn, resume on fresh
# databases + a fresh store — terminal fleet must match a clean run.


class TestHostLossConvergence:
    STREAM = drifting_stream(96)

    def _drive(self, databases, dsn, injector=None):
        store = DatabaseStateStore(
            databases[0], dsn, fault_injector=injector
        )
        controller = make_controller(
            databases,
            store=store,
            warmup=16,
            retry_steps=False,
            fault_injector=injector,
        )
        resume_from = controller.position if controller.resumed else 0
        for position, sql in enumerate(self.STREAM, start=1):
            if position <= resume_from:
                continue
            controller.observe(sql)
        return controller

    def _terminal(self, controller):
        return (
            controller.phase,
            [
                sorted(ix.name for ix in rt.design)
                for rt in controller.replicas
            ],
            [db_fingerprint(rt.database) for rt in controller.replicas],
        )

    def test_clean_run_matches_file_backed_run(self, tmp_path):
        (tmp_path / "a").mkdir()
        via_db = self._drive(
            fleet_databases(2), str(tmp_path / "a" / "dbstate.json")
        )
        file_controller = make_controller(
            fleet_databases(2),
            state_path=str(tmp_path / "STATE"),
            warmup=16,
            retry_steps=False,
        )
        for sql in self.STREAM:
            file_controller.observe(sql)
        assert self._terminal(via_db) == self._terminal(file_controller)

    @pytest.mark.parametrize("point", ["rollout.journal", "journal.write"])
    def test_host_loss_at_every_journal_write_converges(
        self, tmp_path, point
    ):
        idle = FaultInjector()
        (tmp_path / "clean").mkdir()
        clean = self._drive(
            fleet_databases(2), str(tmp_path / "clean" / "dbstate.json"), idle
        )
        expected = self._terminal(clean)
        writes = idle.checks(point)
        assert writes > 0
        for k in range(1, writes + 1):
            rundir = tmp_path / f"kill-{point}-{k}"
            rundir.mkdir()
            dsn = str(rundir / "dbstate.json")
            try:
                self._drive(
                    fleet_databases(2),
                    dsn,
                    FaultInjector.from_spec(f"{point}:{k}"),
                )
            except FaultInjected:
                pass
            # Host loss, not process loss: every local file except the
            # store's dsn pair disappears with the machine.
            survivors = {
                os.path.basename(dsn),
                os.path.basename(resilience_state.backup_path(dsn)),
            }
            for name in os.listdir(rundir):
                assert name in survivors, (
                    f"unexpected local state file {name}: host-loss "
                    "resume must not depend on it"
                )
            resumed = self._drive(fleet_databases(2), dsn)
            assert self._terminal(resumed) == expected, (
                f"host loss at {point} #{k} diverged after resume"
            )

    def test_stale_serve_daemon_dies_on_journal_write(self, tmp_path):
        dsn = str(tmp_path / "dbstate.json")
        databases = fleet_databases(2)
        store = DatabaseStateStore(databases[0], dsn)
        store.acquire(owner="old-daemon")
        controller = make_controller(
            databases, store=store, warmup=16, retry_steps=False
        )
        # Failover: a new daemon takes the lease mid-run.
        DatabaseStateStore(make_people_db(rows=60), dsn).acquire(owner="new")
        with pytest.raises(StaleLeaseError):
            for sql in self.STREAM:
                controller.observe(sql)


# ----------------------------------------------------------------------
# Router and tuner checkpoints through a store


class TestComponentsThroughStore:
    """Components persist as ``store.write(key, x.save_state())``."""

    def test_router_round_trips_through_a_slot(self, tmp_path):
        costs = {"t1": (10.0, 20.0), "t2": (20.0, 10.0)}
        router = Router(costs, 2)
        router.route("SELECT a FROM t WHERE x < 1", weight=2.0)
        store = FileStateStore(str(tmp_path / "STATE"))
        store.write("router", router.save())
        clone = Router.load(store.read("router")[0])
        assert clone.save() == router.save()
        assert store.exists("router")

    def test_tuner_round_trips_through_the_primary_slot(self, tmp_path):
        from repro.core.parinda import Parinda

        db = make_people_db(rows=120)
        store = FileStateStore(str(tmp_path / "STATE"))
        parinda = Parinda(db, cache_max_entries=64)
        tuner = parinda.online(
            budget_pages=256, window_size=8, check_interval=4
        )
        for i in range(12):
            tuner.observe(f"SELECT person_id FROM people WHERE age < {1 + i % 5}")
        store.write("", dict(tuner.save_state(), stream_position=12))
        assert store.read("")[0]["stream_position"] == 12
        resumed = parinda.online(budget_pages=256, state_store=store)
        assert resumed.monitor.observed == tuner.monitor.observed
        assert [ix.name for ix in resumed.design] == [
            ix.name for ix in tuner.design
        ]


# ----------------------------------------------------------------------
# Satellite: the cold-start ladder when *both* copies are torn


class TestBothCopiesTorn:
    def test_fleet_controller_degrades_to_cold_start(self, tmp_path):
        state = str(tmp_path / "STATE")
        controller = make_controller(
            fleet_databases(2), state_path=state, warmup=16
        )
        for sql in drifting_stream(48):
            controller.observe(sql)
        resilience_state.dump_state(state, controller.save_state())
        _tear(state)
        _tear(resilience_state.backup_path(state))
        cold = make_controller(
            fleet_databases(2), state_path=state, warmup=16
        )
        assert not cold.resumed
        assert cold.event_counts["degraded"] == 1
        assert cold.position == 0

    def _stream_file(self, tmp_path, n=24):
        path = tmp_path / "stream.sql"
        path.write_text(
            ";\n".join(drifting_stream(n)) + ";\n", encoding="utf-8"
        )
        return str(path)

    def test_cli_tune_store_starts_cold_with_exit_zero(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        base = str(tmp_path / "STATE")
        FileStateStore(base).write("", {"bad": "shape"})
        _tear(base)
        _tear(resilience_state.backup_path(base))
        code = main(
            [
                "--db", "sdss:1000",
                "tune",
                "--stream", self._stream_file(tmp_path),
                "--store", f"file:{base}",
                "--window", "8", "--check-interval", "4",
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "state store unrecoverable" in err
        # The cold run still checkpointed: the slot is readable again.
        assert FileStateStore(base).exists("")

    def test_cli_fleet_serve_state_starts_cold_with_exit_zero(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        state = str(tmp_path / "FLEET")
        controller = make_controller(
            fleet_databases(2), state_path=state, warmup=16
        )
        for sql in drifting_stream(48):
            controller.observe(sql)
        resilience_state.dump_state(state, controller.save_state())
        _tear(state)
        _tear(resilience_state.backup_path(state))
        code = main(
            [
                "--db", "sdss:1000",
                "fleet", "--serve",
                "--replicas", "2",
                "--stream", self._stream_file(tmp_path),
                "--state", state,
                "--window", "8", "--check-interval", "4", "--warmup", "8",
            ]
        )
        out = capsys.readouterr()
        assert code == 0
        assert "state unrecoverable, starting cold" in out.err
        assert "Resuming" not in out.out


# ----------------------------------------------------------------------
# Files written through the old path entry points keep resuming


class TestPathWrittenFilesStillResume:
    """``--state``/``--journal`` files from before the store was the only
    persistence API — one ``dump_state(path, state)`` each — resume to
    the same design and position, and still grow no ``.lease``."""

    @staticmethod
    def _design(out):
        return [
            line for line in out.splitlines()
            if line.startswith("Replica ") or "CREATE INDEX" in line
        ]

    @staticmethod
    def _rewrite_with_dump_state(path):
        """Replace ``path`` by what the pre-store writer wrote for the
        same state: the bytes must not move."""
        state, source = resilience_state.load_state(path)
        survivor = path if source == "primary" else resilience_state.backup_path(path)
        before = open(survivor, "rb").read()
        for victim in (path, resilience_state.backup_path(path)):
            if os.path.exists(victim):
                os.remove(victim)
        resilience_state.dump_state(path, state)
        assert open(path, "rb").read() == before
        return state

    def test_tune_state_file(
        self, tmp_path, capsys, monkeypatch, sdss_stream_file
    ):
        state = str(tmp_path / "S")
        args = TUNE_ARGS + ["--stream", sdss_stream_file]
        _, clean, _ = run_main(capsys, monkeypatch, args)
        code, _, _ = run_main(
            capsys, monkeypatch, args + ["--state", state],
            injected="stream.read:61",
        )
        assert code == 3
        assert self._rewrite_with_dump_state(state)["stream_position"] == 60
        code, out, _ = run_main(capsys, monkeypatch, args + ["--state", state])
        assert code == 0
        assert "skipping 60 stream statement(s)" in out
        assert self._design(out) == self._design(clean)
        assert not os.path.exists(f"{state}.lease")

    def test_apply_journal_file(
        self, tmp_path, capsys, monkeypatch, sdss_stream_file
    ):
        journal = str(tmp_path / "J")
        args = TUNE_ARGS + [
            "--stream", sdss_stream_file, "--apply", "--journal", journal
        ]
        with pytest.raises(FaultInjected):
            run_main(capsys, monkeypatch, args, injected="journal.write:3")
        assert self._rewrite_with_dump_state(journal)["phase"] == "in-progress"
        capsys.readouterr()
        code, out, _ = run_main(capsys, monkeypatch, args)
        assert code == 0
        assert "Applied design (resumed)" in out
        assert f"journal {journal} committed" in out
        assert not os.path.exists(f"{journal}.lease")

    def test_fleet_envelope_file(
        self, tmp_path, capsys, monkeypatch, sdss_stream_file
    ):
        state = str(tmp_path / "F")
        args = SERVE_ARGS + ["--stream", sdss_stream_file]
        _, clean, _ = run_main(capsys, monkeypatch, args)
        with pytest.raises(FaultInjected):
            run_main(
                capsys, monkeypatch, args + ["--state", state],
                injected="rollout.journal:3",
            )
        position = self._rewrite_with_dump_state(state)["position"]
        capsys.readouterr()
        code, out, _ = run_main(capsys, monkeypatch, args + ["--state", state])
        assert code == 0
        assert f"Resuming from {state}: position {position}," in out
        assert self._design(out) == self._design(clean)
        assert not os.path.exists(f"{state}.lease")


# ----------------------------------------------------------------------
# The write path: one read of the dsn, one serialised slot. A random
# schedule against a model, files checked by the earlier loader, the
# earlier spaced layout still loading, and a count pin on the work.


MISSING, TORN = "missing", "torn"


class _DurableFile:
    """Model of one primary/.bak pair."""

    def __init__(self) -> None:
        self.primary: object = MISSING
        self.backup: object = MISSING

    def write(self, value) -> None:
        if self.primary is not MISSING:
            self.backup = self.primary
        self.primary = copy.deepcopy(value)

    def load(self):
        """The ladder's value, or None when nothing verifies."""
        for value in (self.primary, self.backup):
            if value not in (MISSING, TORN):
                return value
        return None

    def exists(self) -> bool:
        return self.primary is not MISSING or self.backup is not MISSING


class _StoreModel:
    """What two store instances on one backing should observe.

    ``shared``: every slot (and the lease) is a row of one dsn document
    (the db backend); otherwise each slot, and the lease, is its own
    file (the file backend).
    """

    def __init__(self, shared: bool) -> None:
        self.shared = shared
        self.files: dict[str, _DurableFile] = {}
        self.held: list[int | None] = [None, None]

    def file(self, key: str) -> _DurableFile:
        return self.files.setdefault("dsn" if self.shared else key, _DurableFile())

    def get(self, key: str) -> tuple[bool, object]:
        """(readable, state) for ``key``."""
        value = self.file(key).load()
        if self.shared:
            value = None if value is None else value.get(key)
        return value is not None, value

    def exists(self, key: str) -> bool:
        return self.get(key)[0] if self.shared else self.file(key).exists()

    def put(self, key: str, state: dict) -> None:
        if self.shared:
            state = {**(self.file(key).load() or {}), key: state}
        self.file(key).write(state)

    def stale(self, who: int) -> bool:
        lease = self.get(LEASE_KEY)[1]
        return lease is not None and self.held[who] != lease["epoch"]

    def acquire(self, who: int, owner: str) -> int:
        lease = self.get(LEASE_KEY)[1]
        epoch = lease["epoch"] + 1 if lease is not None else 1
        self.put(LEASE_KEY, {"epoch": epoch, "owner": owner})
        self.held[who] = epoch
        return epoch


def _path_for(store, key: str) -> str:
    if isinstance(store, DatabaseStateStore):
        return store.dsn
    return store.lease_path if key == LEASE_KEY else store.path_for(key)


def _snapshot(directory: str) -> dict[str, bytes]:
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


def _foreign_write(store, key: str, state: dict) -> None:
    """Another program writes ``key`` in the earlier spaced layout."""
    if not isinstance(store, DatabaseStateStore):
        legacy_dump_state(store.path_for(key), state)
        return
    try:
        document, _source = resilience_state.load_state(store.dsn)
        rows = document["rows"]
    except StateCorruptError:
        rows = {}
    rows[key] = {"epoch": 0, "state": state}
    legacy_dump_state(store.dsn, {"format": "repro-store-v1", "rows": rows})


_KEYS = st.sampled_from(["", "apply", "r0.apply"])
_WHO = st.integers(0, 1)
_STATES = st.dictionaries(
    st.text(max_size=4),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=6),
        st.lists(st.integers(), max_size=3),
    ),
    max_size=4,
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _WHO, _KEYS, _STATES),
        st.tuples(st.just("read"), _WHO, _KEYS),
        st.tuples(st.just("exists"), _WHO, _KEYS),
        st.tuples(st.just("acquire"), _WHO),
        st.tuples(st.just("tear"), _KEYS),
        st.tuples(st.just("foreign"), _KEYS, _STATES),
    ),
    max_size=20,
)


def _run_schedule(steps, shared: bool, directory: str) -> None:
    if shared:
        dsn = os.path.join(directory, "dbstate.json")
        databases = [Database(), Database()]
        stores = [DatabaseStateStore(db, dsn, backoff=0.0) for db in databases]
    else:
        base = os.path.join(directory, "STATE")
        stores = [FileStateStore(base, backoff=0.0) for _ in range(2)]
    model = _StoreModel(shared)
    for step in steps:
        kind = step[0]
        if kind == "write":
            _, who, key, state = step
            if model.stale(who):
                before = _snapshot(directory)
                with pytest.raises(StaleLeaseError):
                    stores[who].write(key, state)
                assert _snapshot(directory) == before
                continue
            stores[who].write(key, state)
            model.put(key, state)
            if shared:
                mirror = databases[who].relation(STORE_TABLE).heap
                assert {
                    skey: json.loads(payload)
                    for skey, payload in zip(
                        mirror.column("skey"), mirror.column("payload")
                    )
                } == model.file(key).load()
        elif kind == "read":
            _, who, key = step
            readable, state = model.get(key)
            if readable:
                assert stores[who].read(key)[0] == state
            else:
                with pytest.raises(StateCorruptError):
                    stores[who].read(key)
        elif kind == "exists":
            _, who, key = step
            assert stores[who].exists(key) == model.exists(key)
        elif kind == "acquire":
            _, who = step
            assert stores[who].acquire(owner=f"s{who}") == model.acquire(
                who, f"s{who}"
            )
        elif kind == "tear":
            _, key = step
            _tear(torn_slot_paths(stores[0], key)[0])
            model.file(key).primary = TORN
        else:
            _, key, state = step
            _foreign_write(stores[0], key, state)
            model.put(key, state)
        # Every envelope on disk verifies under the earlier loader and
        # holds what the model says.
        for key in ("", "apply", "r0.apply", LEASE_KEY):
            durable = model.file(key)
            primary = _path_for(stores[0], key)
            for path, value in (
                (primary, durable.primary),
                (resilience_state.backup_path(primary), durable.backup),
            ):
                if value in (MISSING, TORN):
                    continue
                state = legacy_load_verified(path)
                if shared:
                    state = {k: row["state"] for k, row in state["rows"].items()}
                assert state == value
        assert not any(name.endswith(".tmp") for name in os.listdir(directory))


class TestWritePath:
    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS)
    def test_schedule_matches_the_model_on_both_backends(self, steps):
        for shared in (True, False):
            with tempfile.TemporaryDirectory() as directory:
                _run_schedule(steps, shared, directory)

    # The envelopes every earlier version wrote: json.dumps' spaced
    # layout around the same canonical-text checksum.
    LEGACY_FILE = (
        '{"format": "repro-state-v1", "sha256": '
        '"f96c96870ce59d270db9f43248672a4eeb55364935606a463d58dec44700819f", '
        '"state": {"version": 1, "payload": "alpha"}}'
    )
    LEGACY_DSN = (
        '{"format": "repro-state-v1", "sha256": '
        '"ba93cf015a2476dd74adedca46fe88b0532954876ccfb18d1eedd8eecde84d9c", '
        '"state": {"format": "repro-store-v1", "rows": {"": {"epoch": 1, '
        '"state": {"version": 1, "payload": "alpha"}}, "__lease__": '
        '{"epoch": 1, "state": {"epoch": 1, "owner": "old"}}}}}'
    )

    def test_earlier_spaced_layout_still_loads(self, tmp_path):
        path = tmp_path / "STATE"
        path.write_text(self.LEGACY_FILE)
        assert FileStateStore(str(path)).read("") == (STATE_A, "primary")
        dsn = tmp_path / "dbstate.json"
        dsn.write_text(self.LEGACY_DSN)
        store = DatabaseStateStore(make_people_db(rows=60), str(dsn))
        assert store.read("") == (STATE_A, "primary")
        with pytest.raises(StaleLeaseError, match="'old'"):
            store.write("", STATE_B)
        assert store.acquire(owner="new") == 2
        store.write("apply", STATE_B)
        rows = legacy_load_verified(str(dsn))["rows"]
        assert rows[""]["state"] == STATE_A and rows["apply"]["state"] == STATE_B

    def test_body_is_the_canonical_text(self, tmp_path):
        path = str(tmp_path / "STATE")
        FileStateStore(path).write("", STATE_A)
        canonical = json.dumps(STATE_A, sort_keys=True, separators=(",", ":"))
        assert open(path).read().endswith(f'"state": {canonical}}}')

    @staticmethod
    def _count(monkeypatch) -> dict:
        """Count row-set loads, JSON parses and canonicalisations."""
        calls = {"load_state": 0, "parsed": [], "canonical": 0}

        def counting(name, real):
            def wrapper(arg, *args, **kwargs):
                if name == "parsed":
                    calls[name].append(arg)
                else:
                    calls[name] += 1
                return real(arg, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            store_module, "load_state", counting("load_state", store_module.load_state)
        )
        canonical = counting("canonical", resilience_state.canonical_json)
        monkeypatch.setattr(store_module, "canonical_json", canonical)
        monkeypatch.setattr(resilience_state, "canonical_json", canonical)
        # json.load goes through json.loads, so this sees file parses too.
        monkeypatch.setattr(json, "loads", counting("parsed", json.loads))
        return calls

    def _owned_store(self, tmp_path):
        store = _db_store(tmp_path)
        store.acquire(owner="a")
        store.write("", {"rows": list(range(400))})
        store.write("apply", STATE_A)
        return store

    def test_write_on_own_dsn_serialises_one_slot(self, tmp_path, monkeypatch):
        store = self._owned_store(tmp_path)
        calls = self._count(monkeypatch)
        store.write("r0.apply", STATE_B)
        assert calls["load_state"] == 0
        assert calls["canonical"] == 1
        # The one parse is the lease slot's record, never the row set.
        assert calls["parsed"] == ['{"epoch":1,"owner":"a"}']
        assert store.read("r0.apply")[0] == STATE_B
        assert calls["parsed"][1:] == [
            json.dumps(STATE_B, sort_keys=True, separators=(",", ":"))
        ]
        assert calls["load_state"] == 0

    def test_foreign_takeover_is_seen_by_the_next_write(
        self, tmp_path, monkeypatch
    ):
        store = self._owned_store(tmp_path)
        DatabaseStateStore(make_people_db(rows=60), store.dsn).acquire(owner="b")
        before = _snapshot(str(tmp_path))
        calls = self._count(monkeypatch)
        with pytest.raises(StaleLeaseError, match="'b'"):
            store.write("", STATE_B)
        assert calls["load_state"] == 1
        assert _snapshot(str(tmp_path)) == before

    @pytest.mark.parametrize("disturbance", ["torn-write", "foreign", "bak"])
    def test_disturbed_dsn_takes_the_verified_path(
        self, tmp_path, monkeypatch, disturbance
    ):
        injector = FaultInjector.from_spec("journal.write:1")
        store = _db_store(tmp_path, fault_injector=injector)
        store.acquire(owner="a")
        store.write("", STATE_A)
        store.write("", STATE_A)  # the .bak holds the slot too
        if disturbance == "torn-write":
            with pytest.raises(FaultInjected):
                store.write("", STATE_B, fault_point="journal.write")
        elif disturbance == "foreign":
            _foreign_write(store, "apply", STATE_B)
        else:
            os.remove(store.dsn)
        calls = self._count(monkeypatch)
        store.write("r0.apply", STATE_B)
        # One verified load per attempt, and its lease (epoch 1, held)
        # admitted the write.
        assert calls["load_state"] == 1
        assert store.read("")[0] == STATE_A
        assert store.read("r0.apply")[0] == STATE_B
        assert calls["load_state"] == 1
        assert legacy_load_verified(store.dsn)["rows"][LEASE_KEY]["state"] == {
            "epoch": 1, "owner": "a"
        }

    def test_failed_temp_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "state.json")
        resilience_state.dump_state(path, STATE_A)
        resilience_state.dump_state(path, STATE_B)

        class Full:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[:7])
                raise OSError(28, "No space left on device")

        def full_disk_open(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            return Full(handle) if str(file).endswith(".tmp") else handle

        monkeypatch.setattr(resilience_state, "open", full_disk_open, raising=False)
        with pytest.raises(OSError, match="No space"):
            resilience_state.dump_state(path, {"gen": 3})
        assert sorted(os.listdir(tmp_path)) == ["state.json", "state.json.bak"]
        assert resilience_state.load_state(path) == (STATE_B, "primary")
