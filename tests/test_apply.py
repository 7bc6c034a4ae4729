"""Crash-safe design materialization: deltas, journals, kill/resume.

The acceptance loop kills an apply at *every* journal write and every
index build (via injected ``journal.write`` / ``index.build`` faults)
and asserts that resuming converges to a catalog bit-identical to an
uninterrupted apply, and that ``rollback`` after a partial apply
restores the exact pre-apply standing design. Doc-drift tests pin
README and DESIGN.md to :data:`FAULT_POINT_DOCS`, the single source of
truth for the fault surface.
"""

from __future__ import annotations

import re

import pytest

from repro.catalog.schema import Index
from repro.cli import EXIT_APPLY_CONFLICT, main as cli_main
from repro.core.parinda import Parinda
from repro.errors import (
    ApplyConflictError,
    FaultInjected,
    ResilienceError,
)
from repro.executor.executor import execute
from repro.optimizer.planner import Planner
from repro.resilience import faults
from repro.resilience.apply import (
    ApplyExecutor,
    DesignDelta,
    materialized_name,
)
from repro.resilience.faults import FAULT_POINT_DOCS, FAULT_POINTS, FaultInjector
from repro.resilience.state import dump_state, load_state
from repro.resilience.store import FileStateStore
from repro.sql.binder import bind
from repro.sql.parser import parse_select

from tests.conftest import make_people_db


@pytest.fixture(autouse=True)
def _ambient_isolation():
    """No cached REPRO_FAULTS injector leaks between tests."""
    faults.reset_ambient()
    yield
    faults.reset_ambient()


# The proposal carries advisor-style candidate names (per-run counters)
# on purpose: materialization must rename them deterministically.
PROPOSED = (
    Index("cand_7_people_age", "people", ("age",), hypothetical=True),
    Index(
        "cand_3_people_city_height",
        "people",
        ("city", "height"),
        hypothetical=True,
    ),
    Index("cand_9_pets_owner_id", "pets", ("owner_id",), hypothetical=True),
)

EXPECTED_BUILDS = [
    "idx_people_age",
    "idx_people_city_height",
    "idx_pets_owner_id",
]


def fresh_db():
    """A database with one managed standing index (the proposal drops
    it) and one unmanaged user index (deltas must never touch it)."""
    db = make_people_db(rows=400, seed=11)
    db.create_index(Index("idx_people_nickname", "people", ("nickname",)))
    db.create_index(Index("user_pets_weight", "pets", ("weight",)))
    return db


def journaled(db, journal):
    """An executor journaling into a file store at ``journal``; the
    scope's injector drives both its builds and its journal writes."""
    return ApplyExecutor(db, store=FileStateStore(journal))


def fingerprint(db):
    """Catalog + B-Tree registry identity, excluding version counters."""
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
                db.btree(name).leaf_page_count if db.has_btree(name) else 0,
            )
        )
    return tuple(entries)


class TestDesignDelta:
    def test_drops_builds_and_leaves_unmanaged_alone(self):
        db = fresh_db()
        delta = DesignDelta.compute(db, PROPOSED)
        assert [ix.name for ix in delta.drops] == ["idx_people_nickname"]
        assert [ix.name for ix in delta.builds] == EXPECTED_BUILDS
        assert all(not ix.hypothetical for ix in delta.builds)
        assert [ix.name for ix in delta.standing] == ["idx_people_nickname"]
        # Steps are drops first, then builds.
        assert [op for op, _ in delta.steps] == ["drop"] + ["build"] * 3

    def test_materialized_signature_is_not_rebuilt(self):
        db = fresh_db()
        db.create_index(Index("idx_people_age", "people", ("age",)))
        delta = DesignDelta.compute(db, PROPOSED)
        assert "idx_people_age" not in [ix.name for ix in delta.builds]
        assert len(delta.builds) == 2

    def test_duplicate_signatures_collapse(self):
        db = fresh_db()
        doubled = PROPOSED + (
            Index("cand_12_people_age", "people", ("age",), hypothetical=True),
        )
        delta = DesignDelta.compute(db, doubled)
        assert [ix.name for ix in delta.builds] == EXPECTED_BUILDS

    def test_name_collision_gets_numeric_suffix(self):
        db = fresh_db()
        # A hypothetical catalog entry squats on the deterministic name
        # but has a different signature; the build must step aside.
        db.catalog.add_index(
            Index("idx_people_age", "people", ("height",), hypothetical=True)
        )
        delta = DesignDelta.compute(db, PROPOSED)
        assert "idx_people_age_2" in [ix.name for ix in delta.builds]

    def test_noop_after_apply(self, tmp_path):
        db = fresh_db()
        journaled(db, str(tmp_path / "j.json")).apply(PROPOSED)
        delta = DesignDelta.compute(db, PROPOSED)
        assert delta.is_noop
        assert not delta.target_signatures.symmetric_difference(
            {(ix.table_name, ix.columns) for ix in PROPOSED}
        )

    def test_materialized_name_helper(self):
        ix = Index("cand_1_people_age", "people", ("age",), hypothetical=True)
        assert materialized_name(ix) == "idx_people_age"
        assert (
            materialized_name(ix, taken={"idx_people_age", "idx_people_age_2"})
            == "idx_people_age_3"
        )


class TestApplyExecutor:
    def test_full_apply_commits_journal(self, tmp_path):
        db = fresh_db()
        journal = str(tmp_path / "apply.json")
        report = journaled(db, journal).apply(PROPOSED)
        assert report.phase == "committed"
        assert report.built == EXPECTED_BUILDS
        assert report.dropped == ["idx_people_nickname"]
        assert not report.resumed
        for name in EXPECTED_BUILDS:
            assert db.has_btree(name)
        assert not db.catalog.has_index("idx_people_nickname")
        assert db.has_btree("user_pets_weight")  # unmanaged survives
        state, source = load_state(journal)
        assert source == "primary"
        assert state["phase"] == "committed"
        assert all(step["status"] == "done" for step in state["steps"])

    def test_reapply_is_idempotent(self, tmp_path):
        db = fresh_db()
        journal = str(tmp_path / "apply.json")
        journaled(db, journal).apply(PROPOSED)
        before = fingerprint(db)
        report = journaled(db, journal).apply(PROPOSED)
        assert report.phase == "committed"
        assert not report.changed
        assert fingerprint(db) == before

    def test_dry_run_touches_nothing(self, tmp_path):
        db = fresh_db()
        before = fingerprint(db)
        journal = tmp_path / "apply.json"
        report = journaled(db, str(journal)).apply(
            PROPOSED, dry_run=True
        )
        assert report.dry_run
        assert report.built == EXPECTED_BUILDS
        assert report.dropped == ["idx_people_nickname"]
        assert fingerprint(db) == before
        assert not journal.exists()

    def test_journalless_apply_works(self):
        db = fresh_db()
        report = ApplyExecutor(db).apply(PROPOSED)
        assert report.phase == "committed"
        assert db.has_btree("idx_people_age")

    def test_resume_without_journal_conflicts(self, tmp_path):
        db = fresh_db()
        executor = journaled(db, str(tmp_path / "j.json"))
        with pytest.raises(ApplyConflictError, match="no apply journal"):
            executor.apply()

    def test_different_target_conflicts_with_unfinished_journal(self, tmp_path):
        db = fresh_db()
        journal = str(tmp_path / "apply.json")
        # The first build and its retry both fail.
        injector = FaultInjector.from_spec("index.build:1,2")
        with faults.injecting(injector), pytest.raises(FaultInjected):
            journaled(db, journal).apply(PROPOSED)
        other = (Index("cand_1_pets_weight", "pets", ("weight",), hypothetical=True),)
        with pytest.raises(ApplyConflictError, match="different"):
            journaled(db, journal).apply(other)
        # The journaled run itself still resumes fine afterwards.
        report = journaled(db, journal).apply(PROPOSED)
        assert report.phase == "committed"
        assert report.resumed

    def test_half_built_index_is_discarded_and_rebuilt(self, tmp_path):
        db = fresh_db()
        # A catalog entry with no backing B-Tree: what a journal sees
        # after a cross-process resume of this in-memory engine.
        db.catalog.add_index(Index("idx_people_age", "people", ("age",)))
        report = journaled(db, str(tmp_path / "j.json")).apply(
            PROPOSED
        )
        recovered = [d for d in report.degraded if d.action == "recovered"]
        assert recovered and recovered[0].subject == "idx_people_age"
        assert "idx_people_age" in report.built
        assert db.has_btree("idx_people_age")

    def test_build_failure_is_retried_once(self, tmp_path):
        db = fresh_db()
        injector = FaultInjector.from_spec("index.build:2")
        with faults.injecting(injector):
            report = journaled(db, str(tmp_path / "j.json")).apply(PROPOSED)
        assert report.phase == "committed"
        retried = [d for d in report.degraded if d.action == "retried"]
        assert len(retried) == 1 and retried[0].point == "index.build"
        for name in EXPECTED_BUILDS:
            assert db.has_btree(name)


class TestKillResume:
    """Acceptance: SIGKILL at any step, then resume == uninterrupted."""

    def _clean_run(self, tmp_path):
        db = fresh_db()
        idle = FaultInjector()  # counts every check, never fires
        with faults.injecting(idle):
            journaled(db, str(tmp_path / "clean.json")).apply(PROPOSED)
        return fingerprint(db), idle

    def test_kill_at_every_journal_write_converges(self, tmp_path):
        clean, idle = self._clean_run(tmp_path)
        writes = idle.checks("journal.write")
        assert writes >= 6  # initial + per-step started/done + commit
        for k in range(1, writes + 1):
            db = fresh_db()
            journal = str(tmp_path / f"kill-w{k}.json")
            injector = FaultInjector.from_spec(f"journal.write:{k}")
            with faults.injecting(injector), pytest.raises(FaultInjected):
                journaled(db, journal).apply(PROPOSED)
            report = journaled(db, journal).apply(PROPOSED)
            assert report.phase == "committed", f"write {k}"
            assert fingerprint(db) == clean, f"write {k}"

    def test_kill_at_every_index_build_converges(self, tmp_path):
        clean, idle = self._clean_run(tmp_path)
        builds = idle.checks("index.build")
        assert builds == len(EXPECTED_BUILDS)
        for k in range(1, builds + 1):
            db = fresh_db()
            journal = str(tmp_path / f"kill-b{k}.json")
            # Build k and its retry both fail.
            injector = FaultInjector.from_spec(f"index.build:{k},{k + 1}")
            with faults.injecting(injector), pytest.raises(FaultInjected):
                journaled(db, journal).apply(PROPOSED)
            report = journaled(db, journal).apply(PROPOSED)
            assert report.phase == "committed", f"build {k}"
            assert report.resumed, f"build {k}"
            assert fingerprint(db) == clean, f"build {k}"

    def test_scope_reaches_journal_writes_of_a_plain_store(self, tmp_path):
        # The store holds no injector of its own: the caller's scope
        # still reaches the first journal write, before any build.
        db = fresh_db()
        store = FileStateStore(str(tmp_path / "apply.json"))
        injector = FaultInjector.from_spec("journal.write:1")
        with faults.injecting(injector), pytest.raises(FaultInjected) as excinfo:
            Parinda(db).apply_design(PROPOSED, store=store)
        assert excinfo.value.point == "journal.write"
        assert injector.fired("journal.write") == 1
        assert not any(db.has_btree(name) for name in EXPECTED_BUILDS)


class TestRollback:
    def test_rollback_restores_exact_standing_design(self, tmp_path):
        db = fresh_db()
        pre = fingerprint(db)
        journal = str(tmp_path / "apply.json")
        # The second build and its retry both fail.
        injector = FaultInjector.from_spec("index.build:2,3")
        with faults.injecting(injector), pytest.raises(FaultInjected):
            journaled(db, journal).apply(PROPOSED)
        # Partial: the drop and one build happened.
        assert not db.catalog.has_index("idx_people_nickname")
        report = journaled(db, journal).rollback()
        assert report.phase == "rolled-back"
        assert "idx_people_nickname" in report.built
        assert fingerprint(db) == pre

    def test_rollback_after_commit_restores_standing(self, tmp_path):
        db = fresh_db()
        pre = fingerprint(db)
        journal = str(tmp_path / "apply.json")
        journaled(db, journal).apply(PROPOSED)
        journaled(db, journal).rollback()
        assert fingerprint(db) == pre

    def test_rollback_is_idempotent(self, tmp_path):
        db = fresh_db()
        journal = str(tmp_path / "apply.json")
        journaled(db, journal).apply(PROPOSED)
        journaled(db, journal).rollback()
        settled = fingerprint(db)
        report = journaled(db, journal).rollback()
        assert report.phase == "rolled-back"
        assert not report.changed
        assert fingerprint(db) == settled

    def test_rollback_after_idempotent_reapply_undoes_the_apply(self, tmp_path):
        # A no-op re-apply must not clobber the committed journal's
        # rollback point: rollback still restores the pre-apply design.
        db = fresh_db()
        pre = fingerprint(db)
        journal = str(tmp_path / "apply.json")
        journaled(db, journal).apply(PROPOSED)
        reapply = journaled(db, journal).apply(PROPOSED)
        assert not reapply.changed
        report = journaled(db, journal).rollback()
        assert report.phase == "rolled-back"
        assert fingerprint(db) == pre

    def test_rollback_without_journal_conflicts(self, tmp_path):
        db = fresh_db()
        with pytest.raises(ApplyConflictError, match="nothing to roll back"):
            journaled(db, str(tmp_path / "no.json")).rollback()
        with pytest.raises(ApplyConflictError, match="journal path"):
            ApplyExecutor(db).rollback()

    def test_interrupted_rollback_blocks_apply_then_finishes(self, tmp_path):
        db = fresh_db()
        pre = fingerprint(db)
        journal = str(tmp_path / "apply.json")
        journaled(db, journal).apply(PROPOSED)
        injector = FaultInjector.from_spec("journal.write:3")
        with faults.injecting(injector), pytest.raises(FaultInjected):
            journaled(db, journal).rollback()
        with pytest.raises(ApplyConflictError, match="rollback is in progress"):
            journaled(db, journal).apply(PROPOSED)
        journaled(db, journal).rollback()
        assert fingerprint(db) == pre


class TestStorageFaultPoints:
    @staticmethod
    def _build_checks(db, columns):
        """Which sort built people(columns), and the fault checks it made.

        Schedules such as ``index.build:%3`` and the ledger's kill points
        number checks, so the count per build is part of the contract.
        """
        idle = FaultInjector()
        with faults.injecting(idle):
            btree = db.create_index(Index("probe", "people", columns))
        db.drop_index("probe")
        return btree.build_path, idle.checks("index.build"), idle.checks("page.read")

    def test_index_build_fault_leaves_catalog_untouched(self):
        db = fresh_db()
        version = db.catalog.version
        injector = FaultInjector.from_spec("index.build:1")
        with faults.injecting(injector), pytest.raises(FaultInjected):
            db.create_index(Index("idx_people_age", "people", ("age",)))
        # Atomic build-then-publish: nothing was registered anywhere.
        assert not db.catalog.has_index("idx_people_age")
        assert not db.has_btree("idx_people_age")
        assert db.catalog.version == version
        assert (injector.checks("index.build"), injector.checks("page.read")) == (1, 0)
        # A finished build: one index.build check, then one page.read
        # per key column, whichever sort the column data selected.
        assert self._build_checks(db, ("age", "height")) == ("numpy", 1, 2)
        assert self._build_checks(db, ("city", "nickname", "age")) == ("tuples", 1, 3)

    def test_page_read_fault_aborts_index_build(self):
        db = fresh_db()
        injector = FaultInjector.from_spec("page.read:1")
        with faults.injecting(injector), pytest.raises(FaultInjected) as excinfo:
            db.create_index(Index("idx_people_age", "people", ("age",)))
        assert excinfo.value.point == "page.read"
        assert not db.catalog.has_index("idx_people_age")
        assert (injector.checks("index.build"), injector.checks("page.read")) == (1, 1)

    def test_page_read_fault_fires_in_executor_scan(self):
        db = fresh_db()
        query = bind(
            db.catalog,
            parse_select("select age from people where height > 150"),
        )
        plan = Planner(db.catalog).plan(query)
        assert execute(db, plan).rows  # fault-free run works
        injector = FaultInjector.from_spec("page.read:1")
        with faults.injecting(injector), pytest.raises(FaultInjected) as excinfo:
            execute(db, plan)
        assert excinfo.value.point == "page.read"

    def test_journal_write_schedule_is_independent_of_state_write(self, tmp_path):
        injector = FaultInjector.from_spec("journal.write:1")
        path = str(tmp_path / "s.json")
        # state.write traffic never consumes the journal.write schedule.
        with faults.injecting(injector):
            dump_state(path, {"gen": 1})
            with pytest.raises(FaultInjected):
                dump_state(path, {"gen": 2}, fault_point="journal.write")
        assert injector.fired("journal.write") == 1
        assert injector.fired("state.write") == 0


class TestDocDrift:
    """README and DESIGN.md are pinned to FAULT_POINT_DOCS."""

    POINT_RE = re.compile(r"`([a-z]+\.[a-z_]+)`")

    def _section(self, path, start, end):
        text = open(path).read()
        assert start in text, f"{path} lost its {start!r} section"
        body = text.split(start, 1)[1]
        return body.split(end, 1)[0] if end in body else body

    def test_fault_points_tuple_derives_from_docs(self):
        assert FAULT_POINTS == tuple(FAULT_POINT_DOCS)
        for point in ("index.build", "page.read", "journal.write"):
            assert point in FAULT_POINT_DOCS

    def test_unknown_point_error_lists_all_points(self):
        with pytest.raises(ResilienceError) as excinfo:
            FaultInjector.from_spec("nope.point:1")
        for point in FAULT_POINT_DOCS:
            assert point in str(excinfo.value)

    def test_readme_fault_list_matches_exactly(self):
        section = self._section(
            "README.md", "## Fault injection (`REPRO_FAULTS`)", "\n## "
        )
        documented = set(self.POINT_RE.findall(section))
        assert documented == set(FAULT_POINT_DOCS)

    def test_design_md_fault_table_matches_exactly(self):
        section = self._section("DESIGN.md", "## Failure model", "\n## ")
        documented = {
            p
            for p in self.POINT_RE.findall(section)
            if "." in p and not p.endswith(".py")
        }
        assert documented >= set(FAULT_POINT_DOCS)


class TestTuneApplyCommand:
    """CLI surface: tune --apply / --dry-run / --rollback, exit code 4."""

    @pytest.fixture()
    def stream_file(self, tmp_path):
        lines = []
        for i in range(60):
            lines.append(
                f"SELECT ra, dec FROM photoobj WHERE ra < {i % 7 + 1}"
            )
            lines.append(f"SELECT z FROM specobj WHERE z > {i % 5}")
        path = tmp_path / "stream.sql"
        path.write_text(";\n".join(lines) + ";\n")
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

    def test_apply_dry_run_then_apply(self, capsys, tmp_path, stream_file):
        journal = tmp_path / "apply.json"
        args = self.base_args(stream_file) + ["--journal", str(journal)]
        assert cli_main(args + ["--apply", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "Dry run: would build" in out
        assert not journal.exists()

        assert cli_main(args + ["--apply", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "Applied design" in out
        assert "materialized" in out  # --validate cost lines
        state, _ = load_state(str(journal))
        assert state["phase"] == "committed"

    def test_conflicting_journal_exits_4(self, capsys, tmp_path, stream_file):
        journal = tmp_path / "apply.json"
        dump_state(
            str(journal),
            {
                "version": 1,
                "phase": "in-progress",
                "standing": [],
                "delta": {
                    "drops": [],
                    "builds": [
                        {
                            "name": "idx_photoobj_dec",
                            "table_name": "photoobj",
                            "columns": ["dec"],
                            "unique": False,
                            "hypothetical": False,
                        }
                    ],
                },
                "steps": [],
            },
        )
        code = cli_main(
            self.base_args(stream_file)
            + ["--journal", str(journal), "--apply"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_APPLY_CONFLICT
        assert "apply blocked" in captured.err

    def test_rollback_without_journal_exits_4(self, capsys, tmp_path):
        code = cli_main(
            [
                "--db", "sdss:800",
                "tune",
                "--rollback",
                "--journal", str(tmp_path / "missing.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_APPLY_CONFLICT
        assert "rollback blocked" in captured.err

    def test_rollback_after_apply(self, capsys, tmp_path, stream_file):
        journal = tmp_path / "apply.json"
        args = self.base_args(stream_file) + ["--journal", str(journal)]
        assert cli_main(args + ["--apply"]) == 0
        capsys.readouterr()
        code = cli_main(
            ["--db", "sdss:800", "tune", "--rollback", "--journal", str(journal)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Rollback rolled-back" in captured.out
