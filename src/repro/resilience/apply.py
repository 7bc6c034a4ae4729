"""Crash-safe design materialization: deltas, journals, rollback.

Materializing an advisor's recommendation is the one moment the stack
mutates durable state, so it gets the same treatment a real DBA tool
needs: the :class:`ApplyExecutor` computes a :class:`DesignDelta`
(which standing indexes to drop, which proposed ones to build), writes
a checksummed **intent journal** before every step, and executes steps
idempotently against *observed* database state. A run killed at any
instant — mid-build, mid-journal-write — either resumes to the exact
design an uninterrupted apply would have produced, or rolls back to
the journaled pre-apply design.

The journal reuses the ``repro-state-v1`` envelope from
:mod:`repro.resilience.store` (checksum + rotated ``.bak`` + atomic
replace), written through the ``journal.write`` fault point so its
write stream has a schedule independent of tuner checkpoints. Step
statuses in the journal are *advisory*: on resume every step is
re-checked against the catalog and B-Tree registry, so a journal that
lags reality (the write after a step was the thing that died) still
converges. Builds go through ``Database.create_index``'s atomic
build-then-publish, so a crash mid-build leaves no catalog entry at
all; a catalog entry without a backing B-Tree (possible only across
process restarts of this in-memory engine) is detected and discarded
with a ``recovered`` degradation record before rebuilding.

Conflict detection compares **target designs**, not remaining work:
re-running the same apply after a partial failure recomputes a smaller
delta, but its implied final signature set matches the journal's, so
the resume proceeds. A journal whose target differs from the requested
one raises :class:`~repro.errors.ApplyConflictError` — finish or roll
back the journaled run first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.catalog.schema import Index, index_signature
from repro.errors import (
    ApplyConflictError,
    ExecutorError,
    FaultInjected,
    StateCorruptError,
)
from repro.resilience.degrade import DegradedResult
from repro.resilience.store import StateStore

if TYPE_CHECKING:  # pragma: no cover - import-cycle firewall
    from repro.resilience.faults import FaultInjector
    from repro.storage.database import Database

JOURNAL_VERSION = 1

#: Journal lifecycle phases, in the order a run moves through them.
APPLY_PHASES = (
    "in-progress",
    "committed",
    "rollback-in-progress",
    "rolled-back",
)

#: Prefix marking indexes the apply machinery owns. Standing design =
#: catalog indexes with this prefix that are actually materialized;
#: anything else (user-created indexes) is never dropped by a delta.
MANAGED_PREFIX = "idx_"


def index_to_dict(index: Index) -> dict:
    """An index's wire format, shared by every journal and state file."""
    return {
        "name": index.name,
        "table_name": index.table_name,
        "columns": list(index.columns),
        "unique": index.unique,
        "hypothetical": index.hypothetical,
    }


def index_from_dict(data: dict) -> Index:
    """Inverse of :func:`index_to_dict`."""
    return Index(
        name=data["name"],
        table_name=data["table_name"],
        columns=tuple(data["columns"]),
        unique=bool(data.get("unique", False)),
        hypothetical=bool(data.get("hypothetical", False)),
    )


def materialized_name(
    index: Index, taken: Iterable[str] = (), managed_prefix: str = MANAGED_PREFIX
) -> str:
    """Deterministic on-disk name for ``index``: prefix + table + columns.

    Candidate names (``cand_3_people_age``) carry a per-run counter, so
    the materialized name is derived from the *signature* instead —
    re-running an apply always targets the same names. A collision with
    ``taken`` (an existing index on different columns whose name
    happens to match) appends ``_2``, ``_3``, ...
    """
    base = f"{managed_prefix}{index.table_name}_{'_'.join(index.columns)}"
    taken = set(taken)
    if base not in taken:
        return base
    suffix = 2
    while f"{base}_{suffix}" in taken:
        suffix += 1
    return f"{base}_{suffix}"


@dataclass(frozen=True)
class DesignDelta:
    """The drop/build sets carrying one design onto a database.

    Attributes:
        standing: The managed, materialized indexes observed when the
            delta was computed — the design ``rollback`` restores.
        drops: Standing indexes absent from the proposed design.
        builds: Proposed indexes not yet materialized, renamed to their
            deterministic :func:`materialized_name`.
    """

    standing: tuple[Index, ...]
    drops: tuple[Index, ...]
    builds: tuple[Index, ...]

    @classmethod
    def compute(
        cls,
        database: "Database",
        proposed: Sequence[Index],
        managed_prefix: str = MANAGED_PREFIX,
    ) -> "DesignDelta":
        """Diff ``proposed`` against the observed standing design.

        Unmanaged indexes (no ``managed_prefix``) are never dropped; a
        proposed index whose signature is already materialized —
        managed or not — is never rebuilt. Proposed duplicates (same
        signature) are collapsed, first occurrence wins.
        """
        catalog = database.catalog
        standing = tuple(
            sorted(
                (
                    ix
                    for ix in catalog.indexes()
                    if ix.name.startswith(managed_prefix)
                    and database.has_btree(ix.name)
                ),
                key=lambda ix: ix.name,
            )
        )
        deduped: list[Index] = []
        seen: set[tuple] = set()
        for ix in proposed:
            sig = index_signature(ix)
            if sig not in seen:
                seen.add(sig)
                deduped.append(ix)
        drops = tuple(ix for ix in standing if index_signature(ix) not in seen)
        materialized = {
            index_signature(ix)
            for ix in catalog.indexes()
            if database.has_btree(ix.name)
        }
        # Names freed by the drops — and by half-built managed orphans
        # (catalog entry, no B-Tree), which the executor discards
        # before building — are available, so resumed applies converge
        # on the same deterministic names instead of suffix-drifting.
        orphans = {
            ix.name
            for ix in catalog.indexes()
            if ix.name.startswith(managed_prefix)
            and not ix.hypothetical
            and not database.has_btree(ix.name)
        }
        taken = set(catalog.index_names) - {ix.name for ix in drops} - orphans
        builds: list[Index] = []
        for ix in deduped:
            if index_signature(ix) in materialized:
                continue
            name = materialized_name(ix, taken, managed_prefix)
            taken.add(name)
            builds.append(
                Index(
                    name=name,
                    table_name=ix.table_name,
                    columns=ix.columns,
                    unique=ix.unique,
                )
            )
        return cls(standing=standing, drops=drops, builds=tuple(builds))

    @property
    def is_noop(self) -> bool:
        return not self.drops and not self.builds

    @property
    def steps(self) -> tuple[tuple[str, Index], ...]:
        """Ordered ``(op, index)`` pairs: drops first (frees pages), then builds."""
        return tuple(("drop", ix) for ix in self.drops) + tuple(
            ("build", ix) for ix in self.builds
        )

    @property
    def target_signatures(self) -> frozenset:
        """Signatures of the managed design this delta converges to.

        This — not the drop/build lists — is what conflict detection
        compares: after a partial apply the *remaining work* shrinks
        but the target stays fixed, so re-running the same request
        resumes instead of conflicting.
        """
        sigs = {index_signature(ix) for ix in self.standing}
        sigs -= {index_signature(ix) for ix in self.drops}
        sigs |= {index_signature(ix) for ix in self.builds}
        return frozenset(sigs)

    def payload(self) -> dict:
        return {
            "drops": [index_to_dict(ix) for ix in self.drops],
            "builds": [index_to_dict(ix) for ix in self.builds],
        }

    @classmethod
    def from_journal(cls, journal: dict) -> "DesignDelta":
        delta = journal.get("delta") or {}
        return cls(
            standing=tuple(
                index_from_dict(d) for d in journal.get("standing", [])
            ),
            drops=tuple(index_from_dict(d) for d in delta.get("drops", [])),
            builds=tuple(index_from_dict(d) for d in delta.get("builds", [])),
        )


@dataclass(frozen=True)
class ValidationEntry:
    """Simulated vs. materialized cost of one workload query after apply."""

    name: str
    simulated: float | None
    materialized: float

    @property
    def error(self) -> float | None:
        """Relative error of the simulation, when a simulated cost exists."""
        if self.simulated is None or self.simulated == 0:
            return None
        return abs(self.materialized - self.simulated) / self.simulated


@dataclass
class ApplyReport:
    """What one apply/rollback run did (or, when ``dry_run``, would do)."""

    phase: str
    dropped: list[str] = field(default_factory=list)
    built: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    resumed: bool = False
    dry_run: bool = False
    degraded: list[DegradedResult] = field(default_factory=list)
    validation: list[ValidationEntry] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.dropped or self.built)

    def summary(self) -> str:
        verb = "would build" if self.dry_run else "built"
        drop_verb = "would drop" if self.dry_run else "dropped"
        return (
            f"{verb} {len(self.built)}, {drop_verb} {len(self.dropped)}, "
            f"skipped {len(self.skipped)}"
        )


class ApplyExecutor:
    """Journaled, resumable executor for :class:`DesignDelta` steps.

    Args:
        database: The database to materialize against.
        fault_injector: Explicit injector threaded into index builds
            and journal writes; ``None`` falls through to the ambient
            ``REPRO_FAULTS`` injector at each call site.
        managed_prefix: Name prefix marking indexes this executor owns.
        store: The :class:`~repro.resilience.store.StateStore` holding
            the intent journal; ``None`` disables journaling entirely
            (pure in-memory applies — no crash safety, no rollback).
            With the database backend the journal survives host loss,
            and a fenced store rejects writes from a superseded daemon.
        journal_key: The slot the journal occupies inside ``store``.
    """

    def __init__(
        self,
        database: "Database",
        fault_injector: "FaultInjector | None" = None,
        managed_prefix: str = MANAGED_PREFIX,
        store: StateStore | None = None,
        journal_key: str = "",
    ) -> None:
        self._db = database
        self._fault_injector = fault_injector
        self._managed_prefix = managed_prefix
        self._store = store
        self._journal_key = journal_key
        self._journal_desc = (
            store.describe(journal_key) if store is not None else None
        )

    # ------------------------------------------------------------------
    # Planning

    def plan(self, proposed: Sequence[Index]) -> DesignDelta:
        """The delta that would carry ``proposed`` onto the database."""
        return DesignDelta.compute(
            self._db, proposed, managed_prefix=self._managed_prefix
        )

    # ------------------------------------------------------------------
    # Journal plumbing

    def _write_journal(self, journal: dict) -> None:
        if self._store is None:
            return
        self._store.write(self._journal_key, journal, fault_point="journal.write")

    def _load_journal(self) -> tuple[dict | None, str | None]:
        """(journal, source) when one loads; (None, None) when none exists.

        Raises:
            StateCorruptError: a journal exists but neither the primary
                nor the ``.bak`` survives verification.
        """
        if self._store is None or not self._store.exists(self._journal_key):
            return None, None
        journal, source = self._store.read(self._journal_key)
        return journal, source

    def _fresh_journal(self, delta: DesignDelta, phase: str) -> dict:
        return {
            "version": JOURNAL_VERSION,
            "phase": phase,
            "standing": [index_to_dict(ix) for ix in delta.standing],
            "delta": delta.payload(),
            "steps": [
                {"op": op, "index": index_to_dict(ix), "status": "pending"}
                for op, ix in delta.steps
            ],
        }

    # ------------------------------------------------------------------
    # Step execution

    def _drop_satisfied(self, index: Index) -> bool:
        return not self._db.catalog.has_index(index.name)

    def _build_satisfied(self, index: Index) -> bool:
        for ix in self._db.catalog.indexes_on(index.table_name):
            if index_signature(ix) == index_signature(index) and self._db.has_btree(
                ix.name
            ):
                return True
        return False

    def _discard_half_built(
        self, index: Index, report: ApplyReport
    ) -> None:
        """Drop catalog entries matching ``index`` that lack a B-Tree.

        ``create_index`` is build-then-publish, so within one process
        this is unreachable; a journal replayed against a rebuilt
        database (or a hand-edited catalog) can still observe it.
        """
        sig = index_signature(index)
        for ix in list(self._db.catalog.indexes_on(index.table_name)):
            matches = ix.name == index.name or index_signature(ix) == sig
            if matches and not self._db.has_btree(ix.name):
                self._db.catalog.drop_index(ix.name)
                report.degraded.append(
                    DegradedResult(
                        point="index.build",
                        subject=ix.name,
                        action="recovered",
                        detail="discarded half-built index before rebuild",
                    )
                )

    def _execute_step(
        self, op: str, index: Index, report: ApplyReport, retry_steps: bool
    ) -> None:
        if op == "drop":
            self._db.drop_index(index.name)
            report.dropped.append(index.name)
            return
        self._discard_half_built(index, report)
        try:
            self._db.create_index(
                index.as_real(), fault_injector=self._fault_injector
            )
        except (FaultInjected, ExecutorError) as exc:
            if not retry_steps:
                raise
            # One retry: transient storage faults (a failed page read,
            # an injected build fault) usually clear; a second failure
            # propagates and leaves the journal resumable.
            report.degraded.append(
                DegradedResult(
                    point="index.build",
                    subject=index.name,
                    action="retried",
                    detail=str(exc),
                )
            )
            self._discard_half_built(index, report)
            self._db.create_index(
                index.as_real(), fault_injector=self._fault_injector
            )
        report.built.append(index.name)

    def _run_steps(
        self,
        journal: dict,
        delta: DesignDelta,
        report: ApplyReport,
        retry_steps: bool,
        final_phase: str,
    ) -> ApplyReport:
        satisfied = {
            "drop": self._drop_satisfied,
            "build": self._build_satisfied,
        }
        for position, (op, index) in enumerate(delta.steps):
            entry = journal["steps"][position]
            if satisfied[op](index):
                # Journal statuses are advisory; observed state decides.
                entry["status"] = "done"
                report.skipped.append(f"{op} {index.name}")
                continue
            entry["status"] = "started"
            self._write_journal(journal)
            self._execute_step(op, index, report, retry_steps)
            entry["status"] = "done"
            self._write_journal(journal)
        journal["phase"] = final_phase
        self._write_journal(journal)
        report.phase = final_phase
        return report

    # ------------------------------------------------------------------
    # Apply

    def apply(
        self,
        proposed: Sequence[Index] | None = None,
        *,
        delta: DesignDelta | None = None,
        dry_run: bool = False,
        retry_steps: bool = True,
    ) -> ApplyReport:
        """Materialize a design; resume the journaled run when one exists.

        Exactly one of ``proposed`` / ``delta`` describes the request,
        or both are ``None`` to resume whatever the journal records.
        ``dry_run`` computes and reports the delta without touching the
        journal or the database. ``retry_steps=False`` disables the
        single per-step retry — kill-simulation tests use it so an
        injected fault reliably aborts the run.

        Raises:
            ApplyConflictError: an unfinished journal records a
                *different* target design, a rollback is in progress,
                there is nothing to resume, or the journal is corrupt
                and no request was supplied to restart from.
        """
        if proposed is not None and delta is not None:
            raise ApplyConflictError("pass proposed indexes or a delta, not both")
        if proposed is not None:
            delta = self.plan(proposed)
        report = ApplyReport(phase="in-progress", dry_run=dry_run)

        try:
            journal, source = self._load_journal()
        except StateCorruptError as exc:
            if delta is None:
                raise ApplyConflictError(
                    f"apply journal is unreadable and no design was given "
                    f"to restart from: {exc}"
                ) from exc
            journal, source = None, None
            report.degraded.append(
                DegradedResult(
                    point="journal.write",
                    subject=self._journal_desc or "-",
                    action="recovered",
                    detail=f"journal unreadable, restarting apply: {exc}",
                )
            )
        if source == "backup":
            report.degraded.append(
                DegradedResult(
                    point="journal.write",
                    subject=self._journal_desc or "-",
                    action="recovered",
                    detail="journal primary torn; resumed from .bak",
                )
            )

        if journal is not None:
            phase = journal.get("phase")
            if phase == "rollback-in-progress":
                raise ApplyConflictError(
                    "a rollback is in progress for this journal; finish it "
                    "with --rollback before applying a new design"
                )
            if phase == "in-progress":
                journaled = DesignDelta.from_journal(journal)
                if (
                    delta is not None
                    and delta.target_signatures != journaled.target_signatures
                ):
                    raise ApplyConflictError(
                        "an unfinished apply journal records a different "
                        "target design; resume it (re-run the same apply), "
                        "or roll it back first"
                    )
                # Resume: keep the journaled standing design and step
                # list — the observed-state skip checks fast-forward
                # past whatever already completed.
                delta = journaled
                report.resumed = True
            elif delta is None:
                # committed / rolled-back: the journaled run finished.
                report.phase = phase
                return report
            elif delta.is_noop:
                # Nothing to do; leave the finished journal's rollback
                # point intact rather than clobbering it with an empty
                # run, so an idempotent re-apply followed by a rollback
                # still undoes the original apply.
                report.phase = "committed"
                return report
            else:
                journal = None  # finished journal; start a new run over it

        if delta is None:
            raise ApplyConflictError("no apply journal to resume")

        if dry_run:
            report.dropped = [ix.name for ix in delta.drops]
            report.built = [ix.name for ix in delta.builds]
            report.skipped = []
            report.phase = "dry-run"
            return report

        if journal is None:
            journal = self._fresh_journal(delta, "in-progress")
            self._write_journal(journal)
        return self._run_steps(journal, delta, report, retry_steps, "committed")

    # ------------------------------------------------------------------
    # Rollback

    def rollback(self, *, retry_steps: bool = True) -> ApplyReport:
        """Restore the standing design recorded in the journal.

        The reverse delta is computed from the *current* observed state
        to the journaled ``standing`` list, so a rollback interrupted
        and re-run converges exactly like a resumed apply. Idempotent:
        rolling back an already rolled-back journal is a no-op.

        Raises:
            ApplyConflictError: no journal exists, or it is corrupt.
        """
        if self._store is None:
            raise ApplyConflictError("rollback needs a journal path or store")
        try:
            journal, source = self._load_journal()
        except StateCorruptError as exc:
            raise ApplyConflictError(
                f"apply journal is unreadable; cannot roll back: {exc}"
            ) from exc
        if journal is None:
            raise ApplyConflictError(
                f"no apply journal at {self._journal_desc}; nothing to roll back"
            )
        report = ApplyReport(phase="rollback-in-progress")
        if source == "backup":
            report.degraded.append(
                DegradedResult(
                    point="journal.write",
                    subject=self._journal_desc or "-",
                    action="recovered",
                    detail="journal primary torn; resumed from .bak",
                )
            )
        if journal.get("phase") == "rolled-back":
            report.phase = "rolled-back"
            return report

        standing = [index_from_dict(d) for d in journal.get("standing", [])]
        standing_sigs = {index_signature(ix) for ix in standing}
        current = [
            ix
            for ix in self._db.catalog.indexes()
            if ix.name.startswith(self._managed_prefix)
            and self._db.has_btree(ix.name)
        ]
        drops = tuple(
            sorted(
                (
                    ix
                    for ix in current
                    if index_signature(ix) not in standing_sigs
                ),
                key=lambda ix: ix.name,
            )
        )
        builds = tuple(
            ix for ix in standing if not self._build_satisfied(ix)
        )
        reverse = DesignDelta(
            standing=tuple(current), drops=drops, builds=builds
        )
        journal["phase"] = "rollback-in-progress"
        journal["delta"] = reverse.payload()
        journal["steps"] = [
            {"op": op, "index": index_to_dict(ix), "status": "pending"}
            for op, ix in reverse.steps
        ]
        self._write_journal(journal)
        return self._run_steps(journal, reverse, report, retry_steps, "rolled-back")
