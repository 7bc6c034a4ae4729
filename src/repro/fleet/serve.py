"""Closed-loop fleet serving: route, watch, re-tune, roll out, guard.

The divergent tuner (:mod:`repro.fleet.tuner`) answers "what should
each replica's design be"; this module *drives* a live fleet with that
answer and guards it. The :class:`FleetController` closes the loop:

* **Serve** — every observed statement is routed by the cost-table
  :class:`~repro.fleet.router.Router` and fed into that replica's own
  :class:`~repro.online.monitor.WorkloadMonitor`, so each replica
  accumulates exactly the traffic it actually serves.
* **Watch** — at a fixed check interval the per-replica monitors are
  merged (:meth:`WorkloadMonitor.merge`) and the fleet-level window
  distribution is compared against the baseline of the last tune;
  each serving replica's local window is checked the same way. Either
  scope drifting triggers a re-tune.
* **Re-tune** — the controller's one
  :class:`~repro.fleet.tuner.DivergentTuner`, built at construction
  over the *pristine* advising catalog (frozen then, managed indexes
  stripped — advising against materialized designs would zero the
  very benefits that justified them) and the controller's cost cache,
  tunes the merged monitor into new per-replica designs and a new
  router.
* **Roll out** — designs land **replica by replica** through the
  journaled :class:`~repro.resilience.apply.ApplyExecutor`. The
  invariant, proven by test: at most one replica is in transition at
  any observable step. The router excludes the in-transition replica,
  re-pricing its load onto the survivors, and restores it afterwards.
* **Guard** — after each replica's apply, a health gate re-prices that
  replica's live window under the new design and under the design it
  replaced. A regressing window starts a probation counter; a
  configurable number of *consecutive* regressing windows confirms the
  regression, triggers an automatic journaled rollback of that replica
  only, and **freezes** the fleet (no further drift-driven rollouts;
  serving continues). A crashed or faulted apply (the ``replica.apply``
  fault point, or a real executor error) **quarantines** the replica —
  it leaves serving rotation, the survivors absorb its load, and the
  rollout moves on instead of aborting the fleet.

**Durability.** All rollout state flows through the ``store`` argument,
a :class:`~repro.resilience.store.StateStore` whose primary slot the
controller owns, as the online tuner owns its own: it resumes from it
at construction, checkpoints it every ``state_interval`` statements,
and flushes it on :meth:`FleetController.checkpoint`. A
:class:`~repro.resilience.store.FileStateStore` keeps checksummed
local files, a :class:`~repro.resilience.store.DatabaseStateStore`
keeps the envelope and every per-replica apply journal *inside the
monitored database* — a daemon restarted on a fresh host with zero
local state files resumes the same serve loop. Every rollout step is
journaled (through the ``rollout.journal`` fault point) *before* the
step becomes observable, and the per-replica apply journals ride
alongside in slots ``rN.apply`` (files ``STATE.rN.apply`` under the
file backend). A SIGKILL at any instant — between journal writes,
mid-apply, mid-rollback — resumes from the envelope to the same
terminal fleet state an uninterrupted run reaches: standing designs
re-materialize idempotently, an in-flight transition re-runs its
(resumable) apply, an in-flight rollback finishes, and the statement
suffix replays from the journaled stream position, repeating every
drift check and validation verdict deterministically. A fenced store
(one whose lease was acquired) additionally rejects every write from a
superseded daemon with :class:`~repro.errors.StaleLeaseError`, so a
stale host coming back after failover cannot clobber the new owner's
journal.

Fault points: ``replica.apply`` (one replica's apply inside a rollout
— quarantines), ``rollout.journal`` (one controller journal write —
propagates, simulating process death), ``validate.window`` (one health
gate evaluation — that window is skipped with a degradation event,
counting neither for nor against the probation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.catalog.schema import Index, index_signature
from repro.errors import (
    ApplyConflictError,
    CanonicalizeError,
    ExecutorError,
    FaultInjected,
    ReproError,
    StateCorruptError,
    TokenizeError,
)
from repro.fleet.router import Router
from repro.fleet.tuner import DivergentTuner
from repro.online.drift import DriftDetector
from repro.online.monitor import WorkloadMonitor
from repro.online.tuner import EVENT_RING_SIZE
from repro.optimizer.config import PlannerConfig
from repro.optimizer.planner import Planner
from repro.parallel.caches import CostCache
from repro.resilience.apply import (
    MANAGED_PREFIX,
    ApplyExecutor,
    ApplyReport,
    index_from_dict,
    index_to_dict,
)
from repro.resilience import faults
from repro.resilience.faults import FaultInjector
from repro.resilience.store import StateStore, read_resume, write_checkpoint
from repro.storage.database import Database
from repro.workloads.workload import Workload

# Serialization format of FleetController.save_state()/restore.
FLEET_STATE_VERSION = 1

# Cost-comparison slack for the health gate; plan costs are float sums.
_EPS = 1e-9

#: Every event kind the controller can emit, in rough lifecycle order.
FLEET_EVENT_KINDS = (
    "drifted",
    "re-tuned",
    "rollout-started",
    "transition-started",
    "applied",
    "transition-finished",
    "skipped",
    "rollout-finished",
    "validated",
    "regressed",
    "rolled-back",
    "frozen",
    "quarantined",
    "degraded",
    "store",
    "resumed",
    "thawed",
    "released",
)

#: Replica lifecycle states.
REPLICA_STATUSES = (
    "serving",       # in rotation under its standing design
    "quarantined",   # faulted apply; out of rotation, old design stands
    "rolling-back",  # confirmed regression; journaled rollback in flight
    "rolled-back",   # rollback finished; serving its pre-apply design
)


@dataclass(frozen=True)
class FleetEvent:
    """One observable controller action (drift, apply, rollback, ...)."""

    kind: str
    sequence: int  # stream position when the event fired
    replica_id: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        where = f" replica {self.replica_id}" if self.replica_id is not None else ""
        return f"[{self.sequence}]{where} {self.kind}: {self.detail}"


class _ReplicaRuntime:
    """Everything the controller tracks per fleet member."""

    def __init__(
        self,
        replica_id: int,
        database: Database,
        monitor: WorkloadMonitor,
    ) -> None:
        self.replica_id = replica_id
        self.database = database
        self.monitor = monitor
        #: This replica's apply-journal slot in the controller's store.
        self.journal_key = f"r{replica_id}.apply"
        self.design: tuple[Index, ...] = ()
        self.status = "serving"
        self.detail = ""  # quarantine/rollback reason, for reporting
        #: Local drift baseline (window distribution at the last tune).
        self.baseline: dict[str, float] | None = None
        #: Post-apply health-gate state: {"old": [index dicts],
        #: "left": windows remaining, "regressions": consecutive count}.
        self.probation: dict | None = None


def _normalize_design(design: Sequence[Index]) -> tuple[Index, ...]:
    return tuple(sorted(design, key=lambda ix: (ix.table_name, ix.columns)))


def _signatures(design: Sequence[Index]) -> frozenset:
    return frozenset(index_signature(ix) for ix in design)


class FleetController:
    """Drive a live replicated fleet: serve, re-tune, roll out, guard.

    Args:
        databases: One :class:`Database` per replica (index 0 is also
            the advising primary). Fork them with ``Database.clone()``
            — the catalogs must describe the same schema.
        config: Planner configuration shared by routing-cost validation
            and re-tuning.
        budget_pages: Per-replica storage budget for re-tunes.
        store: The :class:`~repro.resilience.store.StateStore` holding
            the rollout journal / resume envelope (slot ``""``) and the
            per-replica apply journals (slots ``rN.apply``); ``None``
            runs purely in memory (no crash safety).
            With a :class:`DatabaseStateStore` the whole serve loop
            survives host loss; with a fenced store a superseded
            daemon's writes raise
            :class:`~repro.errors.StaleLeaseError` instead of
            corrupting the journal.
        window_size: Per-replica monitor window.
        check_interval: Statements between drift/validation checks.
        warmup: Statements before the first tune (default: window_size).
        state_interval: Statements between periodic (best-effort) state
            checkpoints; rollout-critical journal writes are unaffected.
        regression_windows: Consecutive regressing validation windows
            that confirm a regression and trigger rollback + freeze.
        regression_tolerance: Relative slack before a window counts as
            regressing (``new > old * (1 + tolerance)``).
        probation_windows: Validation windows a freshly applied design
            stays under the health gate before it is trusted.
        max_share / max_rounds / seed / cost_cache: forwarded to the
            re-tuning :class:`DivergentTuner`, which is built here, so
            an invalid value raises at construction.
        fault_injector: The injector active around every
            ``observe``/``rollout``/``resume``/``thaw``/``release``
            call, journal writes included
            (:func:`repro.resilience.faults.injecting`); ``None``
            leaves the caller's scope in force.
        listener: Callback receiving every :class:`FleetEvent`.

    Monitors keep their default decay, drift checks the default
    thresholds, and every index build is retried once.
    """

    def __init__(
        self,
        databases: Sequence[Database],
        config: PlannerConfig | None = None,
        *,
        budget_pages: int,
        store: StateStore | None = None,
        window_size: int = 64,
        check_interval: int = 32,
        warmup: int | None = None,
        state_interval: int = 64,
        regression_windows: int = 2,
        regression_tolerance: float = 0.1,
        probation_windows: int = 4,
        max_share: float = 1.0,
        max_rounds: int = 4,
        seed: int = 0,
        cost_cache: CostCache | None = None,
        fault_injector: FaultInjector | None = None,
        listener: Callable[[FleetEvent], None] | None = None,
    ) -> None:
        if not databases:
            raise ReproError("a fleet needs at least one database")
        if check_interval <= 0:
            raise ReproError("check_interval must be positive")
        if state_interval <= 0:
            raise ReproError("state_interval must be positive")
        if regression_windows <= 0:
            raise ReproError("regression_windows must be positive")
        if regression_tolerance < 0:
            raise ReproError("regression_tolerance must be non-negative")
        self.n_replicas = len(databases)
        self._config = config or PlannerConfig()
        self._store = store
        self.window_size = window_size
        self.check_interval = check_interval
        self.warmup = window_size if warmup is None else warmup
        self.state_interval = state_interval
        self._drift = DriftDetector()
        self.regression_windows = regression_windows
        self.regression_tolerance = regression_tolerance
        self.probation_windows = probation_windows
        self._cost_cache = cost_cache if cost_cache is not None else CostCache()
        self._faults = fault_injector
        self._listener = listener

        self._replicas = [
            _ReplicaRuntime(
                rid,
                db,
                WorkloadMonitor(window_size=window_size),
            )
            for rid, db in enumerate(databases)
        ]
        # The advising catalog is frozen *pristine*: managed (idx_)
        # materializations are stripped so a controller constructed
        # over already-applied databases (an in-process resume, a
        # restart mid-experiment) advises from the same zero point as
        # a cold one — otherwise post-resume re-tunes would see zero
        # benefit for standing indexes and diverge from the clean run.
        self._advise_catalog = databases[0].catalog.clone()
        for name in [
            ix.name
            for ix in self._advise_catalog.indexes()
            if ix.name.startswith(MANAGED_PREFIX) and not ix.hypothetical
        ]:
            self._advise_catalog.drop_index(name)
        self._tuner = DivergentTuner(
            self._advise_catalog,
            self._config,
            n_replicas=self.n_replicas,
            budget_pages=int(budget_pages),
            max_rounds=max_rounds,
            seed=seed,
            max_share=max_share,
            cost_cache=self._cost_cache,
        )
        self._router = Router({}, self.n_replicas, max_share=max_share)
        self._baseline: dict[str, float] | None = None
        self._position = 0
        self._rollout: dict | None = None
        self._regressed: dict | None = None
        self._retunes = 0
        self._validation_catalogs: dict[frozenset, object] = {}
        self._events: deque[FleetEvent] = deque(maxlen=EVENT_RING_SIZE)
        self.event_counts: dict[str, int] = {k: 0 for k in FLEET_EVENT_KINDS}
        # Only the first-ever write can tear both candidates (no .bak
        # exists yet), and it happens before anything is materialized,
        # so a cold start replays the stream to the same terminal state.
        state, notice = read_resume(self._store)
        self.resumed = self._pending_resume = state is not None
        if state is not None:
            self._restore(state)
        if notice is not None:
            self._emit("store", detail=notice)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def router(self) -> Router:
        return self._router

    @property
    def events(self) -> list[FleetEvent]:
        """The retained event log (most recent ``EVENT_RING_SIZE``;
        exact per-kind totals are in :attr:`event_counts`)."""
        return list(self._events)

    @property
    def regressed(self) -> dict | None:
        """The design a confirmed regression rolled back (while frozen).

        ``{"replica": id, "design": [index dicts], "position": n}`` —
        what ``thaw()`` reports to the acknowledging operator; ``None``
        when the fleet is not frozen.
        """
        return dict(self._regressed) if self._regressed else None

    @property
    def position(self) -> int:
        """Statements observed (stream position for resume)."""
        return self._position

    @property
    def phase(self) -> str:
        """``frozen`` while a regression awaits :meth:`thaw`, else
        ``rollout`` while a rollout is journaled, else ``serving``."""
        if self.frozen:
            return "frozen"
        return "serving" if self._rollout is None else "rollout"

    @property
    def frozen(self) -> bool:
        return self._regressed is not None

    @property
    def in_transition(self) -> int | None:
        """The replica currently transitioning, if a rollout is active."""
        if self._rollout is None:
            return None
        return self._rollout["in_transition"]

    @property
    def replicas(self) -> list[_ReplicaRuntime]:
        return list(self._replicas)

    def designs(self) -> list[tuple[Index, ...]]:
        """The standing design of every replica, by replica id."""
        return [tuple(rt.design) for rt in self._replicas]

    def merged_monitor(self) -> WorkloadMonitor:
        """All per-replica monitors merged into one fleet-level view."""
        merged = self._replicas[0].monitor
        for runtime in self._replicas[1:]:
            merged = merged.merge(runtime.monitor)
        if len(self._replicas) == 1:
            # Uniform return contract: never alias a live monitor.
            merged = merged.merge(
                WorkloadMonitor(window_size=1, decay=merged.decay)
            )
        return merged

    # ------------------------------------------------------------------
    # Events

    def _emit(
        self, kind: str, replica_id: int | None = None, detail: str = ""
    ) -> FleetEvent:
        event = FleetEvent(
            kind=kind,
            sequence=self._position,
            replica_id=replica_id,
            detail=detail,
        )
        self._events.append(event)
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
        if self._listener is not None:
            self._listener(event)
        return event

    # ------------------------------------------------------------------
    # Serving loop

    @faults.scoped
    def observe(self, sql: str, weight: float = 1.0) -> int:
        """Route one statement into the fleet; returns the replica id.

        Drift checks, probation validations, re-tunes, and rollouts all
        run synchronously inside the triggering ``observe`` call, so
        callers see a fleet that is always settled between statements.

        An untemplatable statement (:class:`TokenizeError` /
        :class:`CanonicalizeError`) still advances the stream position
        — ``position`` is the resume cursor, and a replayed stream must
        skip exactly as many statements as were fed — before the error
        re-raises for the caller to log.
        """
        self._ensure_resumed()
        self._position += 1
        untemplatable: Exception | None = None
        replica_id = -1
        try:
            replica_id = self._router.route(sql, weight)
            self._replicas[replica_id].monitor.observe(sql)
        except (TokenizeError, CanonicalizeError) as exc:
            untemplatable = exc
        if self._position % self.check_interval == 0:
            self._checkpoint_cycle()
        if self._store is not None and self._position % self.state_interval == 0:
            self.checkpoint()
        if untemplatable is not None:
            raise untemplatable
        return replica_id

    def _checkpoint_cycle(self) -> None:
        self._validate_probations()
        self._refresh_baselines()
        if self.phase != "serving":
            return
        if self._position < self.warmup:
            return
        scope = self._drift_scope()
        if scope is None:
            return
        merged = self.merged_monitor()
        if self._baseline is not None:
            self._emit("drifted", detail=scope)
        result = self._retune(merged)
        if result is None:
            return
        self.rollout(
            [tuple(replica.design) for replica in result.replicas],
            router=result.router,
        )

    def _refresh_baselines(self) -> None:
        """Adopt a local drift baseline once a restarted window refills.

        A transition clears the replica's window (its mix changed with
        the new routing); comparing drift against the pre-rollout mix
        would fire spuriously, so the baseline stays unset until the
        window holds at least half its capacity of post-rollout traffic.
        """
        for runtime in self._replicas:
            if runtime.status == "quarantined" or runtime.baseline is not None:
                continue
            counts = runtime.monitor.window_counts
            if sum(counts.values()) * 2 >= self.window_size:
                runtime.baseline = runtime.monitor.window_distribution()

    def _drift_scope(self) -> str | None:
        """Why a re-tune is due (None when the fleet is stable)."""
        merged = self.merged_monitor()
        current = merged.window_distribution()
        if not current:
            return None
        if self._baseline is None:
            return "first tune"
        report = self._drift.compare(self._baseline, current)
        if report.drifted:
            return f"fleet: {report.reason}"
        for runtime in self._replicas:
            if runtime.status == "quarantined" or runtime.baseline is None:
                continue
            local = runtime.monitor.window_distribution()
            if not local:
                continue
            local_report = self._drift.compare(runtime.baseline, local)
            if local_report.drifted:
                return f"replica {runtime.replica_id}: {local_report.reason}"
        return None

    # ------------------------------------------------------------------
    # Re-tuning

    def _retune(self, merged: WorkloadMonitor):
        try:
            result = self._tuner.tune(merged)
        except FaultInjected:
            raise
        except ReproError as exc:
            self._emit("degraded", detail=f"re-tune failed: {exc}")
            return None
        for record in result.degraded:
            self._emit("degraded", detail=str(record))
        self._retunes += 1
        self._baseline = merged.window_distribution()
        self._emit(
            "re-tuned",
            detail=(
                f"{len(result.rounds)} round(s), fleet cost "
                f"{result.total_cost:,.0f}, "
                f"{'converged' if result.converged else 'round cap'}"
            ),
        )
        return result

    # ------------------------------------------------------------------
    # Rollout

    @faults.scoped
    def rollout(
        self,
        designs: Sequence[Sequence[Index]],
        router: Router | None = None,
    ) -> None:
        """Roll per-replica designs out, one replica at a time.

        Public so harnesses (and the regression benchmark) can inject
        a design directly; the serving loop calls it after re-tunes.
        ``router`` replaces the serving router (its routing decisions
        are reset — a fresh rollout inherits pricing, never stale
        assignments — and quarantined replicas are re-excluded).
        """
        self._ensure_resumed()
        if len(designs) != self.n_replicas:
            raise ReproError(
                f"rollout needs {self.n_replicas} designs, got {len(designs)}"
            )
        if self.frozen:
            raise ReproError(
                "the fleet is frozen after a regression rollback; inspect "
                "the regressed design and acknowledge it with thaw() "
                "(fleet --serve --thaw) to resume re-tuning"
            )
        if self._rollout is not None:
            raise ReproError("a rollout is already in progress")
        if router is not None:
            router.reset()
            self._router = router
        for runtime in self._replicas:
            if runtime.status == "quarantined":
                self._exclude_quietly(runtime.replica_id)
        self._rollout = {
            "targets": [
                [index_to_dict(ix) for ix in _normalize_design(d)]
                for d in designs
            ],
            "position": 0,
            "in_transition": None,
        }
        self._emit(
            "rollout-started",
            detail=f"{self.n_replicas} replica(s), retune #{self._retunes}",
        )
        self._validation_catalogs.clear()
        self._journal_state()
        self._run_rollout()

    def _run_rollout(self) -> None:
        while self._rollout["position"] < self.n_replicas:
            rid = self._rollout["position"]
            runtime = self._replicas[rid]
            target = self._rollout_target(rid)
            if runtime.status == "quarantined":
                self._emit("skipped", rid, "quarantined")
                self._advance_rollout()
                continue
            if _signatures(target) == _signatures(runtime.design) and (
                self._executor(runtime).plan(target).is_noop
            ):
                # Same design, but the new router may still shift this
                # replica's mix — re-baseline once the window refills.
                runtime.baseline = None
                self._emit("skipped", rid, "design unchanged")
                self._advance_rollout()
                continue
            self._transition(rid, target)
        self._rollout = None
        self._emit("rollout-finished")
        self._journal_state()

    def _rollout_target(self, rid: int) -> tuple[Index, ...]:
        return tuple(
            index_from_dict(d) for d in self._rollout["targets"][rid]
        )

    def _advance_rollout(self) -> None:
        self._rollout["position"] += 1
        self._journal_state()

    def _transition(self, rid: int, target: tuple[Index, ...]) -> None:
        runtime = self._replicas[rid]
        self._rollout["in_transition"] = rid
        excluded = self._exclude_quietly(rid)
        self._emit(
            "transition-started",
            rid,
            f"{len(target)} target index(es)"
            + ("" if excluded else "; sole replica, stays in rotation"),
        )
        self._journal_state()
        try:
            report = self._apply_replica(runtime, target)
        except (FaultInjected, ApplyConflictError, ExecutorError) as exc:
            if isinstance(exc, FaultInjected) and exc.point != "replica.apply":
                # A deeper fault (journal.write, index.build after
                # retry, rollout.journal) stands in for process death:
                # propagate so the kill/resume harness takes over.
                raise
            self._quarantine(rid, str(exc))
            self._rollout["in_transition"] = None
        else:
            runtime.probation = {
                "old": [index_to_dict(ix) for ix in runtime.design],
                "left": self.probation_windows,
                "regressions": 0,
            }
            runtime.design = target
            runtime.status = "serving"
            runtime.detail = ""
            # The rollout re-prices routing, so the traffic this replica
            # serves from here on is not the mix in its window. Restart
            # the window (templates and profile survive) and re-baseline
            # once it refills: the health gate and drift detector must
            # judge the new design on traffic it actually serves.
            runtime.monitor.clear_window()
            runtime.baseline = None
            self._emit("applied", rid, report.summary())
            if excluded:
                self._router.restore(rid)
            self._rollout["in_transition"] = None
            self._emit("transition-finished", rid)
        self._advance_rollout()

    def _apply_replica(self, runtime: _ReplicaRuntime, target) -> ApplyReport:
        faults.check(
            "replica.apply",
            f"replica {runtime.replica_id} position {self._position}",
        )
        return self._converge(runtime).apply(target)

    def _converge(self, runtime: _ReplicaRuntime) -> ApplyExecutor:
        """The replica's executor, with its apply journal settled.

        A journal left mid-rollback (killed while rolling a regressed
        design back) finishes rolling back — ApplyExecutor refuses to
        mix it with a new apply on purpose. A journal left mid-apply
        finishes its recorded intent: a torn journal write can
        resurface a stale earlier intent from the .bak rotation, and
        converging it first (already-satisfied steps fast-forward)
        before the caller plans against the observed state is correct
        for both the stale and the genuinely-interrupted case.
        """
        executor = self._executor(runtime)
        journal_phase = self._journal_phase(runtime)
        if journal_phase == "rollback-in-progress":
            executor.rollback()
        elif journal_phase == "in-progress":
            executor.apply()
        return executor

    def _rematerialize(self, runtime: _ReplicaRuntime) -> ApplyReport | None:
        """Settle the replica's journal, then build its standing design
        unless it is already there; the apply report, or None."""
        executor = self._converge(runtime)
        if executor.plan(runtime.design).is_noop:
            return None
        return executor.apply(tuple(runtime.design))

    def _executor(self, runtime: _ReplicaRuntime) -> ApplyExecutor:
        return ApplyExecutor(
            runtime.database, store=self._store, journal_key=runtime.journal_key
        )

    def _journal_phase(self, runtime: _ReplicaRuntime) -> str | None:
        if self._store is None or not self._store.exists(runtime.journal_key):
            return None
        try:
            journal, _source = self._store.read(runtime.journal_key)
        except StateCorruptError:
            return None
        return journal.get("phase")

    def _exclude_quietly(self, rid: int) -> bool:
        """Exclude ``rid`` from rotation; False when it must keep serving."""
        try:
            self._router.exclude(rid)
        except ReproError:
            return False
        return True

    def _quarantine(self, rid: int, reason: str) -> None:
        runtime = self._replicas[rid]
        runtime.status = "quarantined"
        runtime.detail = reason
        excluded = self._exclude_quietly(rid)
        self._emit(
            "quarantined",
            rid,
            reason + ("" if excluded else " (sole replica, kept in rotation)"),
        )

    # ------------------------------------------------------------------
    # Health gate

    def _validate_probations(self) -> None:
        for runtime in self._replicas:
            if runtime.probation is None or runtime.status != "serving":
                continue
            verdict = self._validate_replica(runtime)
            if verdict == "confirmed":
                excluded = self._exclude_quietly(runtime.replica_id)
                self._confirm_regression(runtime)
                if excluded and runtime.status != "quarantined":
                    self._router.restore(runtime.replica_id)
                self._journal_state()

    def _validate_replica(self, runtime: _ReplicaRuntime) -> str:
        """One health-gate window: ``clean`` | ``regressed`` |
        ``confirmed`` | ``skipped``."""
        probation = runtime.probation
        try:
            faults.check(
                "validate.window",
                f"replica {runtime.replica_id} position {self._position}",
            )
            window = runtime.monitor.snapshot()
            if not len(window):
                self._emit(
                    "validated", runtime.replica_id, "empty window, skipped"
                )
                return "skipped"
            new_cost = self._design_cost(runtime.design, window)
            old_cost = self._design_cost(
                tuple(index_from_dict(d) for d in probation["old"]), window
            )
        except FaultInjected as exc:
            if exc.point != "validate.window":
                raise
            self._emit(
                "degraded",
                runtime.replica_id,
                f"validation window skipped: {exc}",
            )
            return "skipped"
        if new_cost > old_cost * (1.0 + self.regression_tolerance) + _EPS:
            probation["regressions"] += 1
            probation["left"] -= 1
            self._emit(
                "regressed",
                runtime.replica_id,
                f"window cost {new_cost:,.0f} vs {old_cost:,.0f} under the "
                f"replaced design ({probation['regressions']}/"
                f"{self.regression_windows} consecutive)",
            )
            if probation["regressions"] >= self.regression_windows:
                return "confirmed"
            return "regressed"
        probation["regressions"] = 0
        probation["left"] -= 1
        self._emit(
            "validated",
            runtime.replica_id,
            f"window cost {new_cost:,.0f} vs {old_cost:,.0f} "
            f"({probation['left']} window(s) of probation left)",
        )
        if probation["left"] <= 0:
            runtime.probation = None
        return "clean"

    def _design_cost(
        self, design: tuple[Index, ...], window: Workload
    ) -> float:
        """Planner cost of ``window`` under ``design`` (deterministic).

        Priced against a clone of the pristine advising catalog with
        the design layered on hypothetically — never against the live
        catalog — so an interrupted-and-resumed controller, whose live
        catalogs may be mid-delta, reproduces the exact costs of the
        uninterrupted run.
        """
        key = _signatures(design)
        catalog = self._validation_catalogs.get(key)
        if catalog is None:
            catalog = self._advise_catalog.clone()
            present = {index_signature(ix) for ix in catalog.indexes()}
            taken = set(catalog.index_names)
            for ix in design:
                if index_signature(ix) in present:
                    continue
                name = ix.name
                suffix = 2
                while name in taken:
                    name = f"{ix.name}__v{suffix}"
                    suffix += 1
                taken.add(name)
                catalog.add_index(
                    Index(
                        name=name,
                        table_name=ix.table_name,
                        columns=ix.columns,
                        unique=ix.unique,
                        hypothetical=True,
                    )
                )
            self._validation_catalogs[key] = catalog
        planner = Planner(catalog, self._config)
        total = 0.0
        for query in window:
            try:
                bound = self._cost_cache.bound_query(catalog, query.sql)
                total += planner.plan(bound).total_cost * query.weight
            except FaultInjected:
                raise
            except ReproError:
                # A template the pristine catalog cannot bind (e.g. it
                # references a fragment table); it prices the same —
                # not at all — under both designs, so skipping it never
                # biases the comparison.
                continue
        return total

    def _confirm_regression(self, runtime: _ReplicaRuntime) -> None:
        """Journaled rollback of one replica + fleet freeze."""
        rid = runtime.replica_id
        runtime.status = "rolling-back"
        if not self.frozen:
            rollout_active = self._rollout is not None
            self._rollout = None
            # Remembered for the acknowledging operator: thaw() reports
            # exactly which design regressed, where, before resuming.
            self._regressed = {
                "replica": rid,
                "design": [index_to_dict(ix) for ix in runtime.design],
                "position": self._position,
            }
            self._emit(
                "frozen",
                rid,
                "sustained regression confirmed; rolling back replica "
                f"{rid}"
                + (" and freezing the rollout" if rollout_active else ""),
            )
        # Journal the decision before acting on it: a crash mid-rollback
        # resumes straight into finishing this rollback.
        self._journal_state()
        self._finish_rollback(runtime)

    def _finish_rollback(self, runtime: _ReplicaRuntime) -> None:
        old = tuple(
            index_from_dict(d) for d in (runtime.probation or {}).get("old", [])
        )
        executor = self._executor(runtime)
        if self._journal_phase(runtime):
            report = executor.rollback()
        else:
            # No journal (in-memory controller): restore by applying
            # the remembered pre-apply design directly.
            report = executor.apply(old)
        runtime.design = _normalize_design(old)
        runtime.status = "rolled-back"
        runtime.detail = "regression rollback"
        runtime.probation = None
        self._emit("rolled-back", runtime.replica_id, report.summary())
        self._journal_state()

    # ------------------------------------------------------------------
    # Operator controls

    @faults.scoped
    def thaw(self) -> dict | None:
        """Acknowledge a confirmed regression; resume drift-driven tuning.

        A confirmed regression freezes the fleet so an unattended loop
        cannot keep re-applying a design that made things worse; thaw
        is the explicit operator acknowledgement. Returns the regressed
        record (``{"replica", "design", "position"}``) so the caller
        can show exactly what was rolled back — the same traffic mix
        may well re-derive the same design, and accepting that risk is
        what the acknowledgement means. The fleet goes back to
        ``serving`` in-process (no restart) and the decision is
        journaled immediately.

        Raises:
            ReproError: the fleet is not frozen.
        """
        self._ensure_resumed()
        if not self.frozen:
            raise ReproError("the fleet is not frozen; nothing to thaw")
        info = self._regressed
        self._regressed = None
        detail = "regression acknowledged; re-tuning resumed"
        if info:
            names = ", ".join(
                d.get("name", "?") for d in info.get("design", [])
            ) or "empty design"
            detail = (
                f"acknowledged regressed design on replica "
                f"{info.get('replica')} ({names}); re-tuning resumed"
            )
        self._emit("thawed", detail=detail)
        self._journal_state()
        return dict(info) if info else None

    @faults.scoped
    def release(self, replica_id: int) -> None:
        """Release one quarantined replica back into serving rotation.

        Converges any journal the crashed apply left behind (an
        in-flight rollback finishes, an in-flight apply resumes), then
        re-materializes the replica's standing design idempotently,
        restores it to the router, and restarts its window — the same
        re-entry path a transitioned replica takes, so the health
        machinery judges it on traffic it actually serves.

        Raises:
            ReproError: the replica is not quarantined, or a rollout is
                in flight (release between rollouts).
        """
        self._ensure_resumed()
        if not 0 <= replica_id < self.n_replicas:
            raise ReproError(f"no replica {replica_id} in this fleet")
        if self._rollout is not None:
            raise ReproError("cannot release a replica mid-rollout")
        runtime = self._replicas[replica_id]
        if runtime.status != "quarantined":
            raise ReproError(
                f"replica {replica_id} is {runtime.status}, not quarantined"
            )
        self._rematerialize(runtime)
        runtime.status = "serving"
        runtime.detail = ""
        runtime.probation = None
        runtime.monitor.clear_window()
        runtime.baseline = None
        try:
            self._router.restore(replica_id)
        except ReproError:
            pass  # was never excluded (sole replica kept in rotation)
        self._emit(
            "released", replica_id, "quarantine released; back in rotation"
        )
        self._journal_state()

    # ------------------------------------------------------------------
    # Durability

    def save_state(self) -> dict:
        """The full controller state as a versioned, JSON-able dict."""
        return {
            "version": FLEET_STATE_VERSION,
            "n_replicas": self.n_replicas,
            "position": self._position,
            "phase": self.phase,
            "retunes": self._retunes,
            "baseline": self._baseline,
            "router": self._router.save(),
            "event_counts": dict(self.event_counts),
            "rollout": dict(self._rollout) if self._rollout else None,
            "regressed": dict(self._regressed) if self._regressed else None,
            "replicas": [
                {
                    "status": runtime.status,
                    "detail": runtime.detail,
                    "design": [index_to_dict(ix) for ix in runtime.design],
                    "baseline": runtime.baseline,
                    "probation": dict(runtime.probation)
                    if runtime.probation
                    else None,
                    "monitor": runtime.monitor.save(),
                }
                for runtime in self._replicas
            ],
        }

    def _restore(self, state: dict) -> None:
        version = state.get("version")
        if version != FLEET_STATE_VERSION:
            raise ReproError(
                f"unsupported fleet state version {version!r} "
                f"(expected {FLEET_STATE_VERSION})"
            )
        if int(state["n_replicas"]) != self.n_replicas:
            raise ReproError(
                f"state describes {state['n_replicas']} replicas; "
                f"this fleet has {self.n_replicas}"
            )
        self._position = int(state["position"])
        self._retunes = int(state.get("retunes", 0))
        self._baseline = state.get("baseline")
        self._router = Router.load(state["router"])
        self.event_counts.update(state.get("event_counts") or {})
        rollout = state.get("rollout")
        self._rollout = dict(rollout) if rollout else None
        regressed = state.get("regressed")
        self._regressed = dict(regressed) if regressed else None
        if self._regressed is None and state["phase"] == "frozen":
            # Frozen with no record of what regressed: frozen until
            # thawed, with nothing to report.
            self._regressed = {}
        for runtime, saved in zip(self._replicas, state["replicas"]):
            runtime.status = saved["status"]
            runtime.detail = saved.get("detail", "")
            runtime.design = _normalize_design(
                index_from_dict(d) for d in saved["design"]
            )
            runtime.baseline = saved.get("baseline")
            probation = saved.get("probation")
            runtime.probation = dict(probation) if probation else None
            runtime.monitor = WorkloadMonitor.load(saved["monitor"])

    def _journal_state(self) -> None:
        """Rollout-critical journal write: faults and I/O errors propagate.

        Every observable rollout step is journaled *before* the next
        step runs, through the ``rollout.journal`` fault point — this
        is the hook the SIGKILL sweep drives. Without a store
        journaling is off (in-memory fleet, no crash safety). A
        :class:`~repro.errors.StaleLeaseError` propagates too: a fenced-
        out controller must stop, not keep serving on a journal it no
        longer owns.
        """
        if self._store is None:
            return
        self._store.write(
            "", self.save_state(), fault_point="rollout.journal"
        )

    @faults.scoped
    def checkpoint(self) -> None:
        """Best-effort steady-state checkpoint (stream position bump).

        A failed write is a ``store`` event (the previous checkpoint
        still resumes correctly); losing the lease is not —
        ``StaleLeaseError`` propagates so a superseded daemon dies
        instead of silently serving without durability. A no-op
        without a store.
        """
        if self._store is None:
            return
        notice = write_checkpoint(self._store, self.save_state())
        if notice is not None:
            self._emit("store", detail=notice)

    # ------------------------------------------------------------------
    # Resume

    @faults.scoped
    def resume(self) -> None:
        """Converge a restored controller back to a settled fleet.

        Idempotent; ``observe``/``rollout`` call it lazily. Standing
        designs re-materialize idempotently (a fresh process starts
        with index-free replicas), an interrupted per-replica rollback
        finishes, and an interrupted rollout re-runs from its journaled
        position — the in-transition replica's apply resumes through
        its own apply journal.
        """
        if not self._pending_resume:
            return
        self._pending_resume = False
        self._emit(
            "resumed",
            detail=f"position {self._position}, phase {self.phase}",
        )
        in_transition = (
            self._rollout["in_transition"] if self._rollout else None
        )
        for runtime in self._replicas:
            if runtime.status == "rolling-back":
                self._finish_rollback(runtime)
                continue
            if runtime.status == "quarantined":
                self._exclude_quietly(runtime.replica_id)
                continue
            if runtime.replica_id == in_transition or not runtime.design:
                continue
            report = self._rematerialize(runtime)
            if report is not None:
                self._emit(
                    "applied",
                    runtime.replica_id,
                    f"re-materialized standing design ({report.summary()})",
                )
        if self._rollout is not None:
            self._rollout["in_transition"] = None
            self._run_rollout()

    def _ensure_resumed(self) -> None:
        if self._pending_resume:
            self.resume()
