"""The online tuner: observe → detect drift → re-advise → apply or hold.

A daemon-style loop over the streaming pieces: statements flow into a
:class:`~repro.online.monitor.WorkloadMonitor`; every ``check_interval``
statements the :class:`~repro.online.drift.DriftDetector` compares the
active window against the distribution the standing recommendation was
computed for; on drift the batch :class:`IlpIndexAdvisor` re-runs over
the window snapshot **through the shared CostCache**, so steady-state
re-advising gets back the INUM models the cache already holds and
performs no raw optimizer calls for templates it has already modeled. Observed
INSERT/UPDATE/DELETE statements become per-table ``update_rates`` on
every snapshot, so a write-heavy shift changes the recommendation too.

The loop is factored around **checkpoints**: at each boundary (warmup,
or ``check_interval`` statements past the last check) ``observe()``
captures the window snapshot and distribution and runs the drift check
and any re-advise on them before it returns, so every decision is a
pure function of the checkpoint plus the in-order tuner state.

Hysteresis: a new design is only *adopted* ("recommended") when its
projected per-window benefit over the standing design (scan costs plus
index maintenance under the window's DML rates) exceeds the estimated
cost of building the new indexes — Equation-1 leaf pages times a
configurable per-page write cost. Otherwise the result is logged as
"held": the advisor's opinion is recorded, the design stands, and no
build is suggested. On "held" the baseline **keeps the distribution
the standing design was computed for** — a gradually worsening shift
keeps registering as drift until it is either adopted or genuinely
fades, instead of being absorbed one hold at a time. (The baseline
does move when the advisor re-confirms the standing design for the
new mix, and on the first advise, where no prior baseline exists.)
One exception to the build-cost gate: a switch that builds *nothing*
(the proposal only drops indexes the new window no longer uses) is
free, so it is adopted whenever it does not lose cost — that is how
the standing design sheds stale indexes and converges to the batch
answer after a workload shift. Re-adding a dropped index later pays
full build cost, so drop-then-rebuild cycles cannot oscillate for free.

Durability: :meth:`OnlineTuner.save_state` /
:meth:`OnlineTuner.restore_state` round-trip everything a restarted
daemon needs — monitor templates/window/profile, the baseline, the
standing design, the event counters, and the stream cursor
:attr:`~OnlineTuner.position` — as a versioned JSON-able dict. A tuner
given a :class:`~repro.resilience.store.StateStore` owns its slot
``""`` the way :class:`~repro.fleet.serve.FleetController` does: it
resumes from it at construction, checkpoints it every
``state_interval`` statements, and flushes it on :meth:`checkpoint`.

Every step emits a typed :class:`TuningEvent` (``observed`` /
``quarantined`` / ``drifted`` / ``re-advised`` / ``recommended`` /
``held`` / ``degraded`` / ``store``) consumable by tests, benchmarks,
and the CLI. A ``store`` event is a notice about the state store (a
``.bak`` resume, a cold start, a failed checkpoint), never a failed
tuning step.

Resilience: one failed re-advise never stops the loop. A
:class:`~repro.errors.ReproError` escaping the advisor (or an injected
fault) is converted into a ``degraded`` event and the checkpoint is
dropped — the standing design stays in force and, because the baseline
does not move, the same shift re-registers as drift at the next
boundary, which is the retry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.advisor.ilp_advisor import AdvisorResult, IlpIndexAdvisor
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index, index_signature
from repro.errors import CanonicalizeError, ReproError, TokenizeError
from repro.inum.batch import WorkloadEvaluator
from repro.online.drift import DriftDetector, DriftReport
from repro.online.monitor import QueryTemplate, WorkloadMonitor
from repro.optimizer.config import PlannerConfig
from repro.parallel.caches import CostCache
from repro.resilience.apply import index_from_dict, index_to_dict
from repro.resilience.store import StateStore, read_resume, write_checkpoint
from repro.workloads.workload import Workload

EVENT_KINDS = (
    "observed",
    "quarantined",
    "drifted",
    "re-advised",
    "recommended",
    "applied",
    "held",
    "degraded",
    "store",
)

# Serialization format of OnlineTuner.save_state()/restore_state().
TUNER_STATE_VERSION = 1

#: Ring size of the online tuner's and the fleet controller's event
#: logs: a daemon runs indefinitely; ``event_counts`` keep exact totals.
EVENT_RING_SIZE = 10_000

# Bound of a tuner's private cost cache (see OnlineTuner's cost_cache).
_CACHE_MAX_ENTRIES = 4096


@dataclass(frozen=True)
class TuningEvent:
    """One step of the tuning loop, as seen from outside."""

    kind: str  # one of EVENT_KINDS
    sequence: int  # monitor.observed at emission time
    detail: str = ""
    result: AdvisorResult | None = field(
        default=None, repr=False, compare=False
    )


@dataclass(frozen=True)
class _Checkpoint:
    """A decision point captured on the observe path.

    Everything the decision core needs is frozen here at the boundary
    statement: the window snapshot and distribution at that exact
    sequence.
    """

    kind: str  # "warmup" | "check" | "forced"
    sequence: int
    snapshot: Workload
    distribution: dict[str, float]
    reason: str = ""


class OnlineTuner:
    """Continuous index tuning over a statement stream.

    Args:
        catalog: The catalog to advise against (never mutated).
        config: Planner configuration shared with the advisor.
        budget_pages: Storage budget handed to every re-advise.
        window_size: The monitor's recency window; the monitor decay
            and the drift thresholds are their modules' defaults, and
            :attr:`detector` may be replaced after construction.
        check_interval: Statements between drift checks once warm.
        warmup: Statements before the first (unconditional) advise;
            defaults to ``window_size`` so the first snapshot is a full
            window.
        build_cost_per_page: Hysteresis write cost per Equation-1 index
            page; the projected per-window benefit of switching designs
            must exceed ``new pages × this`` for adoption.
        cost_cache: Share a :class:`CostCache` (e.g. the Parinda
            facade's); by default a bounded private cache is created —
            a long-lived tuner must not grow without limit.
        listener: Optional callback invoked with every
            :class:`TuningEvent` as it is emitted. Exceptions propagate
            to the observe() caller. The retained log (:attr:`events`)
            keeps the last :data:`EVENT_RING_SIZE`; the counters in
            :attr:`event_counts` are never truncated.
        degrade_on_error: Daemon posture. When True, a
            :class:`~repro.errors.ReproError` escaping one re-advise is
            absorbed as a ``degraded`` event (standing design kept,
            baseline unchanged so the drift re-registers — the natural
            retry). When False (default), errors propagate to the
            caller — the library contract tests rely on.
        auto_apply: Callable invoked with the adopted design (a list of
            :class:`Index`) right after every adoption, expected to
            materialize it — ``Parinda.online(auto_apply=True)`` wires
            :meth:`Parinda.apply_design` here. A
            :class:`~repro.errors.ReproError` it raises follows the
            daemon posture: absorbed as a ``degraded`` event under
            ``degrade_on_error`` (the design stays adopted, only
            materialization was lost), propagated otherwise. A
            successful call emits an ``applied`` event.
        compress: CoPhy scale mode for long streams. Checkpoints carry
            the monitor's *full decayed profile*
            (:meth:`WorkloadMonitor.profile_snapshot`) instead of the
            recency window, so a re-advise prices every template the
            stream has ever shown (decay-weighted) rather than the last
            ``window_size`` statements; and the advisor runs with
            ``compress=True``, folding the profile onto its templates,
            so that profile stays cheap to advise at 10k+ observed
            statements.
        store: The :class:`~repro.resilience.store.StateStore` whose
            slot ``""`` the tuner resumes from (read once, here) and
            checkpoints into; ``None`` keeps the tuner in memory.
        state_interval: Statements between best-effort checkpoints.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: PlannerConfig | None = None,
        *,
        budget_pages: int,
        window_size: int = 128,
        check_interval: int = 32,
        warmup: int | None = None,
        build_cost_per_page: float = 4.0,
        cost_cache: CostCache | None = None,
        listener: Callable[[TuningEvent], None] | None = None,
        degrade_on_error: bool = False,
        auto_apply: Callable[[list[Index]], object] | None = None,
        compress: bool = False,
        store: StateStore | None = None,
        state_interval: int = 32,
    ) -> None:
        if budget_pages <= 0:
            raise ReproError("budget_pages must be positive")
        if check_interval <= 0:
            raise ReproError("check_interval must be positive")
        if state_interval <= 0:
            raise ReproError("state_interval must be positive")
        if build_cost_per_page < 0:
            raise ReproError("build_cost_per_page must be non-negative")
        self._catalog = catalog
        self._config = config or PlannerConfig()
        self.budget_pages = budget_pages
        self.monitor = WorkloadMonitor(window_size=window_size)
        self.detector = DriftDetector()
        self.check_interval = check_interval
        self.warmup = warmup if warmup is not None else self.monitor.window_size
        self.build_cost_per_page = build_cost_per_page
        self.cache = (
            cost_cache
            if cost_cache is not None
            else CostCache(max_entries=_CACHE_MAX_ENTRIES)
        )
        self.compress = bool(compress)
        self._advisor = IlpIndexAdvisor(
            catalog,
            self._config,
            cost_cache=self.cache,
            compress=self.compress,
        )
        self._listener = listener
        self._events: deque[TuningEvent] = deque(maxlen=EVENT_RING_SIZE)
        self.event_counts: dict[str, int] = {k: 0 for k in EVENT_KINDS}
        # The distribution the standing recommendation was computed for
        # (None until the first advise) and the design in force.
        self._baseline: dict[str, float] | None = None
        self._warmed = False
        self._last_check = 0
        self._quarantine_announced: set[str] = set()
        self.design: list[Index] = []
        self.last_result: AdvisorResult | None = None
        self.last_drift: DriftReport | None = None
        self.readvise_count = 0
        self.degrade_on_error = bool(degrade_on_error)
        self._auto_apply = auto_apply
        #: Statements fed to :meth:`observe`, untemplatable ones too:
        #: the stream cursor a resumed file stream skips.
        self.position = 0
        self._store = store
        self.state_interval = state_interval
        state, notice = read_resume(store)
        if state is not None:
            self.restore_state(state)
        if notice is not None:
            self._emit("store", self.monitor.observed, notice)

    # ------------------------------------------------------------------
    # The loop

    def observe(self, sql: str) -> QueryTemplate:
        """Ingest one statement; at a boundary, run the drift check and
        any re-advise before returning.

        An untemplatable statement (:class:`TokenizeError` /
        :class:`CanonicalizeError`) still advances :attr:`position` and
        reaches the checkpoint interval before the error re-raises for
        the caller to log, exactly as ``FleetController.observe`` does.
        """
        self.position += 1
        try:
            template = self.monitor.observe(sql)
        except (TokenizeError, CanonicalizeError):
            self._checkpoint_if_due()
            raise
        sequence = self.monitor.observed
        self._emit("observed", sequence, template.template_id)
        if (
            self.monitor.is_quarantined(template.fingerprint)
            and template.fingerprint not in self._quarantine_announced
        ):
            self._quarantine_announced.add(template.fingerprint)
            self._emit(
                "quarantined",
                sequence,
                f"{template.template_id}: statement tokenizes but does not "
                "parse as a SELECT; excluded from advising",
            )

        checkpoint: _Checkpoint | None = None
        if not self._warmed:
            if sequence >= self.warmup:
                self._warmed = True
                self._last_check = sequence
                checkpoint = self._capture("warmup", sequence, reason="warmup")
        elif sequence - self._last_check >= self.check_interval:
            self._last_check = sequence
            checkpoint = self._capture("check", sequence)
        if checkpoint is not None:
            self._process_checkpoint(checkpoint)
        self._checkpoint_if_due()
        return template

    def run(self, statements: Iterable[str]) -> AdvisorResult | None:
        """Feed a whole stream; returns the last advisor result."""
        for sql in statements:
            self.observe(sql)
        return self.last_result

    def readvise(self, reason: str = "forced") -> AdvisorResult | None:
        """Re-run the batch advisor over the current window snapshot.

        Normally driven by :meth:`observe` on warmup/drift; public so
        callers (and tests) can force a re-advise. Emits
        ``re-advised`` followed by ``recommended`` (design adopted) or
        ``held`` (projected benefit below the build-cost threshold).
        Returns None when the window holds no advisable SELECT
        templates.
        """
        if not self.monitor.observed:
            raise ReproError("nothing observed yet; stream statements first")
        sequence = self.monitor.observed
        self._warmed = True
        self._last_check = sequence
        checkpoint = self._capture("forced", sequence, reason=reason)
        return self._process_checkpoint(checkpoint)

    # ------------------------------------------------------------------
    # Checkpoints: captured and processed on the observe path

    def _capture(
        self, kind: str, sequence: int, reason: str = ""
    ) -> _Checkpoint:
        # Scale mode advises the whole decayed profile (every template
        # the stream has shown, decay-weighted, underflowed ones
        # filtered); default mode advises the recency window. Drift
        # detection always compares window distributions either way.
        snapshot = (
            self.monitor.profile_snapshot()
            if self.compress
            else self.monitor.snapshot()
        )
        return _Checkpoint(
            kind=kind,
            sequence=sequence,
            snapshot=snapshot,
            distribution=self.monitor.window_distribution(),
            reason=reason,
        )

    def _process_checkpoint(
        self, checkpoint: _Checkpoint
    ) -> AdvisorResult | None:
        if checkpoint.kind == "check":
            report = self.detector.compare(
                self._baseline or {}, checkpoint.distribution
            )
            self.last_drift = report
            if not report.drifted:
                return None
            self._emit("drifted", checkpoint.sequence, report.reason)
            reason = report.reason
        else:
            reason = checkpoint.reason or checkpoint.kind
        if not self.degrade_on_error:
            return self._advise(checkpoint, reason)
        try:
            return self._advise(checkpoint, reason)
        except ReproError as exc:
            # Degradation ladder: one failed re-advise is logged and
            # dropped. The baseline stays where it was, so the same
            # shift registers as drift again at the next boundary —
            # that re-detection is the retry.
            self._emit(
                "degraded",
                checkpoint.sequence,
                f"re-advise failed ({exc}); standing design kept, "
                "baseline unchanged",
            )
            return None

    # ------------------------------------------------------------------
    # The advise step

    def _advise(
        self, checkpoint: _Checkpoint, reason: str
    ) -> AdvisorResult | None:
        workload = self._advisable(checkpoint)
        if not workload.queries:
            self._emit(
                "held",
                checkpoint.sequence,
                "no advisable SELECT templates in the window",
            )
            # Nothing to compute a design for; acknowledge the mix so a
            # DML-only window does not re-trigger drift every interval.
            self._baseline = dict(checkpoint.distribution)
            return None
        result = self._advisor.recommend(
            workload,
            self.budget_pages,
            update_rates=workload.update_rates or None,
        )
        self.readvise_count += 1
        self.last_result = result
        self._emit(
            "re-advised",
            checkpoint.sequence,
            f"{reason}; {len(workload)} templates, "
            f"{len(result.indexes)} indexes proposed",
            result,
        )
        outcome = self._apply_hysteresis(checkpoint.sequence, workload, result)
        # Baseline policy: the baseline is the mix the *standing* design
        # was computed for. It moves on adoption, on re-confirmation of
        # the standing design, and on the very first advise — but NOT on
        # a build-cost hold, so a gradually worsening shift keeps
        # registering as drift until adopted.
        if outcome != "held" or self._baseline is None:
            self._baseline = dict(checkpoint.distribution)
        return result

    def _advisable(self, checkpoint: _Checkpoint) -> Workload:
        """The checkpoint's snapshot minus anything that fails binding.

        The monitor already quarantines templates that fail the parser;
        binding failures (e.g. a statement naming an unknown column)
        can only be seen here, with the catalog in hand. Offenders are
        quarantined at the monitor so they never reach another advise.
        """
        snapshot = checkpoint.snapshot
        good = []
        for query in snapshot.queries:
            try:
                self.cache.bound_query(self._catalog, query.sql)
            except ReproError as exc:
                self.monitor.quarantine(query.name)
                self._emit(
                    "quarantined",
                    checkpoint.sequence,
                    f"{query.name}: does not bind against the catalog "
                    f"({exc}); excluded from advising",
                )
            else:
                good.append(query)
        if len(good) == len(snapshot.queries):
            return snapshot
        return Workload(
            queries=good,
            name=snapshot.name,
            update_rates=dict(snapshot.update_rates),
        )

    # ------------------------------------------------------------------
    # Hysteresis

    def _apply_hysteresis(
        self, sequence: int, workload: Workload, result: AdvisorResult
    ) -> str:
        """Adopt or hold the proposal; returns the outcome.

        ``"recommended"`` — adopted; ``"unchanged"`` — the proposal is
        the standing design (re-confirmed); ``"held"`` — the projected
        benefit did not beat the build cost.
        """
        old_signatures = {index_signature(ix) for ix in self.design}
        new_signatures = {index_signature(ix) for ix in result.indexes}
        if new_signatures == old_signatures:
            self._emit("held", sequence, "design unchanged")
            return "unchanged"

        # Per-window benefit of switching: price the standing design and
        # the proposed one with the same INUM models the advisor used —
        # all served from the shared cache, zero optimizer calls — plus
        # index maintenance under the window's DML rates, so dropping an
        # index on a write-hot table is credited with its saved upkeep.
        models = self._advisor.build_models(workload, cost_cache=self.cache)
        standing = tuple(self.design)
        proposed = tuple(result.indexes)
        evaluator = WorkloadEvaluator(
            [models[q.name] for q in workload],
            [q.weight for q in workload],
            standing + proposed,
        )
        cost_standing = evaluator.workload_cost(
            range(len(standing))
        ) + self._maintenance(standing, workload.update_rates)
        cost_proposed = evaluator.workload_cost(
            range(len(standing), len(standing) + len(proposed))
        ) + self._maintenance(proposed, workload.update_rates)
        benefit = cost_standing - cost_proposed

        build_pages = sum(
            self._index_pages(ix)
            for ix in result.indexes
            if index_signature(ix) not in old_signatures
        )
        build_cost = build_pages * self.build_cost_per_page

        # A drop-only switch (no pages to build) releases storage for
        # free; adopt it as long as it does not cost anything.
        free_switch = build_pages == 0 and benefit >= 0
        if benefit > build_cost or free_switch:
            self.design = list(result.indexes)
            self._emit(
                "recommended",
                sequence,
                "drop-only switch, no builds needed"
                if free_switch and benefit <= build_cost
                else f"benefit {benefit:.0f} > build {build_cost:.0f} "
                f"({build_pages} new pages)",
                result,
            )
            self._materialize_adopted(sequence)
            return "recommended"
        self._emit(
            "held",
            sequence,
            f"benefit {benefit:.0f} <= build {build_cost:.0f} "
            f"({build_pages} new pages)",
            result,
        )
        return "held"

    def _materialize_adopted(self, sequence: int) -> None:
        """Hand the freshly adopted design to the ``auto_apply`` hook.

        Failures follow the daemon posture: under ``degrade_on_error``
        a failed materialization is a ``degraded`` event and the tuning
        loop continues (the design stays adopted in the tuner; the next
        adoption retries the apply, which is idempotent); otherwise the
        error propagates like any other advise-path failure.
        """
        if self._auto_apply is None:
            return
        try:
            report = self._auto_apply(list(self.design))
        except ReproError as exc:
            if not self.degrade_on_error:
                raise
            self._emit(
                "degraded",
                sequence,
                f"auto-apply failed ({exc}); design adopted but not "
                "materialized",
            )
            return
        detail = (
            report.summary()
            if hasattr(report, "summary")
            else "materialized adopted design"
        )
        self._emit("applied", sequence, detail)

    def _maintenance(
        self, design: tuple[Index, ...], update_rates: dict[str, float]
    ) -> float:
        """Per-window upkeep of a design under the window's DML rates.

        Same per-update model as the advisor's objective: each write to
        a table descends every one of its indexes and dirties a leaf.
        """
        if not update_rates:
            return 0.0
        per_update = (
            self._config.random_page_cost + 50 * self._config.cpu_operator_cost
        )
        return sum(
            update_rates.get(ix.table_name, 0.0) * per_update for ix in design
        )

    def _index_pages(self, index: Index) -> int:
        """Equation-1 size of one proposed index, via the shared cache."""
        table = self._catalog.table(index.table_name)
        stats = self._catalog.statistics(index.table_name)
        return self.cache.index_pages(
            self._catalog, table, index, stats.table.row_count, stats.columns
        )

    # ------------------------------------------------------------------
    # Durability

    def save_state(self) -> dict:
        """The tuner's resumable state as a versioned, JSON-able dict.

        Covers everything a restarted daemon needs to continue exactly
        where this one stopped: the monitor (templates, window, decayed
        profile), the baseline the standing design was computed for,
        the standing design itself, the loop counters, and the stream
        cursor (key ``stream_position``).
        """
        return {
            "version": TUNER_STATE_VERSION,
            "monitor": self.monitor.save(),
            "baseline": dict(self._baseline)
            if self._baseline is not None
            else None,
            "warmed": self._warmed,
            "last_check": self._last_check,
            "design": [index_to_dict(ix) for ix in self.design],
            "readvise_count": self.readvise_count,
            "event_counts": dict(self.event_counts),
            "stream_position": self.position,
        }

    def restore_state(self, state: dict) -> None:
        """Resume from :meth:`save_state` output.

        Only valid on a fresh tuner (nothing observed yet); the
        monitor's saved geometry (window size, decay) wins over the
        constructor's. The retained event *log* starts empty — the
        counters carry over — and ``last_result``/``last_drift`` are
        None until the next advise/check. Keys this version does not
        write (an older state's ``coalesced``) are ignored.
        """
        version = state.get("version")
        if version != TUNER_STATE_VERSION:
            raise ReproError(
                f"unsupported tuner state version {version!r} "
                f"(expected {TUNER_STATE_VERSION})"
            )
        if self.monitor.observed:
            raise ReproError(
                "restore_state requires a fresh tuner "
                f"({self.monitor.observed} statements already observed)"
            )
        self.monitor = WorkloadMonitor.load(state["monitor"])
        baseline = state.get("baseline")
        self._baseline = dict(baseline) if baseline is not None else None
        self._warmed = bool(state.get("warmed"))
        self._last_check = int(state.get("last_check", 0))
        self.design = [index_from_dict(d) for d in state.get("design", ())]
        self.readvise_count = int(state.get("readvise_count", 0))
        self.position = int(state.get("stream_position", 0))
        for kind, count in state.get("event_counts", {}).items():
            if kind in self.event_counts:
                self.event_counts[kind] = int(count)
        self._quarantine_announced = set(self.monitor.quarantined)

    def checkpoint(self) -> None:
        """Write :meth:`save_state` into the store's slot ``""``.

        Best effort: a failed write is a ``store`` event, and the next
        interval retries; a :class:`~repro.errors.StaleLeaseError`
        propagates. A no-op without a store.
        """
        if self._store is None:
            return
        notice = write_checkpoint(self._store, self.save_state())
        if notice is not None:
            self._emit("store", self.monitor.observed, notice)

    def _checkpoint_if_due(self) -> None:
        if self._store is not None and self.position % self.state_interval == 0:
            self.checkpoint()

    # ------------------------------------------------------------------
    # Event log

    def _emit(
        self,
        kind: str,
        sequence: int,
        detail: str,
        result: AdvisorResult | None = None,
    ) -> None:
        event = TuningEvent(
            kind=kind, sequence=sequence, detail=detail, result=result
        )
        self.event_counts[kind] += 1
        self._events.append(event)
        if self._listener is not None:
            self._listener(event)

    @property
    def events(self) -> list[TuningEvent]:
        """The retained event log (most recent :data:`EVENT_RING_SIZE`)."""
        return list(self._events)

    def events_of(self, kind: str) -> list[TuningEvent]:
        if kind not in EVENT_KINDS:
            raise ReproError(f"unknown event kind {kind!r}")
        return [e for e in self.events if e.kind == kind]
