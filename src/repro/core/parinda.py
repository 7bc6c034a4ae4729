"""The Parinda facade: one object, three components.

Mirrors the system architecture of Figure 1: a database with a
hook-modified optimizer underneath, and on top the interactive
component, the automatic index advisor, and the automatic partition
advisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.advisor.ilp_advisor import AdvisorResult, IlpIndexAdvisor
from repro.baselines.greedy import GreedyIndexAdvisor
from repro.catalog.schema import Index, index_signature
from repro.catalog.sizing import BLOCK_SIZE
from repro.core.interactive import InteractiveDesigner
from repro.errors import AdvisorError
from repro.online.tuner import OnlineTuner
from repro.optimizer.config import PlannerConfig
from repro.optimizer.planner import Planner
from repro.parallel.caches import CostCache
from repro.partitioning.autopart import AutoPartAdvisor, PartitionAdvisorResult
from repro.resilience.apply import (
    ApplyExecutor,
    ApplyReport,
    ValidationEntry,
    materialized_name,
)
from repro.resilience.store import StateStore
from repro.storage.database import Database
from repro.workloads.workload import Query, Workload


def _budget_pages(budget_pages: int | None, budget_bytes: int | None) -> int:
    """The storage budget in pages, from whichever spelling was given."""
    if budget_pages is not None:
        return budget_pages
    if budget_bytes is None:
        raise ValueError("provide budget_bytes or budget_pages")
    if budget_bytes <= 0:
        raise AdvisorError("storage budget must be positive")
    return max(1, budget_bytes // BLOCK_SIZE)  # a sub-page budget is one page


@dataclass
class CombinedResult:
    """Outcome of the partitions-then-indexes pipeline."""

    partitions: PartitionAdvisorResult
    indexes: AdvisorResult
    cost_before: float
    cost_after: float

    @property
    def speedup(self) -> float:
        if self.cost_after <= 0:
            return float("inf")
        return self.cost_before / self.cost_after


class Parinda:
    """PARtition and INDex Advisor over one database."""

    def __init__(
        self,
        database: Database,
        config: PlannerConfig | None = None,
        cache_max_entries: int | None = None,
    ) -> None:
        """Args:
        cache_max_entries: Per-section bound on the facade's shared
            :class:`CostCache` (LRU, stale catalog versions evicted
            first). ``None`` keeps it unbounded — fine for one-shot
            scripts, not for a long-lived process; :meth:`online`
            defaults it to a bound when unset.
        """
        self._db = database
        self._config = config or PlannerConfig()
        # Shared across every advisor call made through this facade:
        # bound queries, Equation-1 sizes, and scan costs carry over
        # between suggest_* calls as long as the catalog version holds.
        self._cost_cache = CostCache(max_entries=cache_max_entries)
        self._cache_bounded = cache_max_entries is not None
        self._planner = Planner(self._db.catalog, self._config)
        # Plan cost per (catalog version, SQL): by SQL, not name, as the
        # next workload may reuse a name for another statement.
        self._plan_cost_cache: dict[tuple, float] = {}

    @property
    def database(self) -> Database:
        return self._db

    # ------------------------------------------------------------------
    # Scenario 1: interactive partition/index selection

    def interactive(self) -> InteractiveDesigner:
        """A fresh interactive what-if designer session."""
        return InteractiveDesigner(self._db)

    # ------------------------------------------------------------------
    # Scenario 4: continuous (online) tuning

    def online(
        self,
        budget_pages: int | None = None,
        budget_bytes: int | None = None,
        state_store: StateStore | None = None,
        **knobs,
    ) -> OnlineTuner:
        """An online tuning session over this database's catalog.

        Returns an :class:`~repro.online.tuner.OnlineTuner`; every
        ``observe()`` runs its boundary's drift check and re-advise
        before it returns::

            tuner = parinda.online(budget_bytes=16 << 20)
            for sql in statement_stream:
                tuner.observe(sql)
            print(tuner.design)

        When this facade's cache was constructed with a bound, the
        tuner shares it (re-advises reuse everything suggest_* calls
        cached, and vice versa); an unbounded facade cache is unsafe
        for a long-lived loop, so the tuner then gets its own bounded
        cache. ``state_store`` (a
        :class:`~repro.resilience.store.StateStore`) is handed to the
        tuner, which owns its slot ``""`` as the fleet controller owns
        its own: it resumes from it (templates, window, baseline,
        standing design, stream cursor) instead of starting cold,
        checkpoints it every ``state_interval`` statements, and flushes
        it on ``tuner.checkpoint()``. With the database backend, the
        tuner resumes on a host that has no local state files at all.
        ``knobs`` pass through to :class:`OnlineTuner` (``window_size``,
        ``check_interval``, ``build_cost_per_page``, ``state_interval``,
        ``listener``, ``compress`` for CoPhy scale mode on long
        streams, ...).

        ``auto_apply=True`` materializes every adopted design through
        :meth:`apply_design` (journaled in slot ``"apply"`` of
        ``state_store`` when one is given, in memory otherwise); a
        callable is used as the applier directly. The tuner then
        advises against a *clone* of the catalog, frozen at session
        start: advising against the live catalog after materialization
        would zero the very benefits that justified the design and
        oscillate between adopting and dropping it.
        """
        if self._cache_bounded:
            knobs.setdefault("cost_cache", self._cost_cache)
        auto_apply = knobs.pop("auto_apply", None)
        catalog = self._db.catalog
        if auto_apply:
            if not callable(auto_apply):

                def auto_apply(design):
                    return self.apply_design(design, store=state_store)

            knobs["auto_apply"] = auto_apply
            catalog = self._db.catalog.clone()
        return OnlineTuner(
            catalog,
            self._config,
            budget_pages=_budget_pages(budget_pages, budget_bytes),
            store=state_store,
            **knobs,
        )

    # ------------------------------------------------------------------
    # Scenario 5: divergent-design tuning for a replicated fleet

    def fleet(
        self,
        n_replicas: int,
        budget_pages: int | None = None,
        budget_bytes: int | None = None,
        **knobs,
    ) -> "DivergentTuner":
        """A divergent-design tuner over an ``n_replicas``-wide fleet.

        Returns a :class:`~repro.fleet.tuner.DivergentTuner` that
        advises every replica on this database's catalog::

            fleet = parinda.fleet(n_replicas=3, budget_bytes=16 << 20)
            result = fleet.tune(workload)          # or a WorkloadMonitor
            replica_id = result.router.route(sql)

        The budget is **per replica** (hardware-identical replicas each
        get the same storage). The tuner runs every advise — the
        clustering step and each replica's cluster — on this facade's
        cost cache, bounded by its ``cache_max_entries``: suggest_*
        calls and fleet rounds warm each other, and a template is
        modelled once, not once per replica. ``knobs`` pass through to
        :class:`DivergentTuner` (``max_rounds``, ``seed``,
        ``max_share``, ...).
        """
        from repro.fleet.tuner import DivergentTuner

        knobs.setdefault("cost_cache", self._cost_cache)
        return DivergentTuner(
            self._db.catalog,
            self._config,
            n_replicas=n_replicas,
            budget_pages=_budget_pages(budget_pages, budget_bytes),
            **knobs,
        )

    def fleet_serve(
        self,
        n_replicas: int,
        budget_pages: int | None = None,
        budget_bytes: int | None = None,
        state_store: StateStore | None = None,
        **knobs,
    ) -> "FleetController":
        """A closed-loop serving controller over an ``n_replicas`` fleet.

        Returns a :class:`~repro.fleet.serve.FleetController` whose
        replicas are forked from this facade's database (replica 0 *is*
        this database; the rest are :meth:`Database.clone` views over
        the same rows)::

            store = store_from_spec("file:fleet.state")
            fleet = parinda.fleet_serve(3, budget_bytes=16 << 20,
                                        state_store=store)
            for sql in statement_stream:
                fleet.observe(sql)
            print(fleet.designs(), fleet.phase)

        The controller routes every statement, watches per-replica and
        fleet-level drift, re-tunes through :class:`DivergentTuner`,
        rolls new designs out one replica at a time through journaled
        applies, re-validates each replica against its live window, and
        rolls a sustained regression back automatically. With a
        ``state_store`` the rollout is journaled so a killed process
        resumes to the same terminal fleet state — the
        :class:`~repro.resilience.store.DatabaseStateStore` keeps the
        journal inside the monitored database, surviving host loss, and
        a fenced store rejects a superseded daemon's writes with
        :class:`~repro.errors.StaleLeaseError`. The budget is **per
        replica**. Every re-tune advises on this facade's cost cache
        (bounded by its ``cache_max_entries``) through one tuner the
        controller builds up front, so a bad tuning knob raises here.
        ``knobs`` pass through to :class:`FleetController`
        (``window_size``, ``check_interval``, ``regression_windows``,
        ``listener``, ...).
        """
        from repro.fleet.serve import FleetController

        if n_replicas < 1:
            raise AdvisorError(
                f"a fleet needs at least one replica, got {n_replicas}"
            )
        knobs.setdefault("cost_cache", self._cost_cache)
        databases = [self._db] + [
            self._db.clone() for _ in range(n_replicas - 1)
        ]
        return FleetController(
            databases,
            self._config,
            budget_pages=_budget_pages(budget_pages, budget_bytes),
            store=state_store,
            **knobs,
        )

    # ------------------------------------------------------------------
    # Scenario 2: automatic partition suggestion

    def suggest_partitions(
        self,
        workload: Workload,
        replication_limit: float = 0.25,
        tables: list[str] | None = None,
    ) -> PartitionAdvisorResult:
        """Optimal vertical partitions for ``workload`` (AutoPart)."""
        advisor = AutoPartAdvisor(
            self._db.catalog,
            self._config,
            replication_limit=replication_limit,
            tables=tables,
        )
        return advisor.recommend(workload)

    def create_partitions(self, result: PartitionAdvisorResult) -> list[str]:
        """Physically create suggested partitions ("create on disk"
        option of the demo GUI); returns the fragment table names."""
        created = []
        for scheme in result.schemes.values():
            for relation in self._db.materialize_partitions(scheme):
                created.append(relation.name)
        return created

    # ------------------------------------------------------------------
    # Scenario 3: automatic index suggestion

    def suggest_indexes(
        self,
        workload: Workload,
        budget_bytes: int | None = None,
        budget_pages: int | None = None,
        single_column_only: bool = False,
        compress: bool = False,
    ) -> AdvisorResult:
        """Optimal index set within a storage budget (INUM + ILP).

        ``compress=True`` enables CoPhy scale mode: the workload is
        folded onto canonical templates before advising (10k raw
        statements collapse to their few dozen shapes); the ILP and its
        solve are those of every advise. Advising a raw stream and its
        pre-compressed equivalent then produce bit-identical results.
        """
        advisor = IlpIndexAdvisor(
            self._db.catalog,
            self._config,
            single_column_only=single_column_only,
            cost_cache=self._cost_cache,
            compress=compress,
        )
        return advisor.recommend(workload, _budget_pages(budget_pages, budget_bytes))

    def suggest_indexes_greedy(
        self, workload: Workload, budget_pages: int, **kwargs
    ) -> AdvisorResult:
        """The greedy baseline, for comparisons (experiment E6)."""
        advisor = GreedyIndexAdvisor(self._db.catalog, self._config, **kwargs)
        return advisor.recommend(workload, budget_pages)

    def create_indexes(self, result: AdvisorResult) -> list[str]:
        """Physically build the suggested indexes; returns their names.

        Idempotent: an index whose signature (table + ordered columns)
        is already materialized is skipped and its existing name
        returned, and a name collision with a *different* index gets a
        numeric suffix — so a second call (or a call after an earlier
        advisor run) never collides. Names are derived from the
        signature via :func:`~repro.resilience.apply.materialized_name`
        rather than the per-run candidate counter, so re-runs target
        stable names.
        """
        created = []
        for index in result.indexes:
            sig = index_signature(index)
            existing = next(
                (
                    ix.name
                    for ix in self._db.catalog.indexes_on(index.table_name)
                    if index_signature(ix) == sig and self._db.has_btree(ix.name)
                ),
                None,
            )
            if existing is not None:
                created.append(existing)
                continue
            name = materialized_name(index, taken=self._db.catalog.index_names)
            self._db.create_index(index.as_real(name=name))
            created.append(name)
        return created

    # ------------------------------------------------------------------
    # Crash-safe materialization (tune --apply)

    def apply_design(
        self,
        result: "AdvisorResult | Sequence[Index]",
        *,
        workload: Workload | None = None,
        dry_run: bool = False,
        validate: bool = False,
        store: StateStore | None = None,
        journal_key: str = "apply",
    ) -> ApplyReport:
        """Materialize an advised design through the journaled executor.

        Unlike :meth:`create_indexes`, this computes a full
        :class:`~repro.resilience.apply.DesignDelta` — standing managed
        indexes absent from ``result`` are *dropped* — and, when a
        ``store`` (:class:`~repro.resilience.store.StateStore`) is
        given, every step is preceded by a checksummed intent-journal
        write into its slot ``journal_key``, so a killed process
        resumes (re-run the same call) or rolls back
        (:meth:`rollback_design`) cleanly. With the database backend
        the intent journal survives host loss, not just process loss.

        ``result`` is an :class:`AdvisorResult` or a plain index
        sequence. ``dry_run`` reports the delta without touching
        anything. ``validate`` re-plans each query of ``workload``
        (required then) against the materialized catalog and fills
        ``report.validation`` with simulated-vs-materialized cost
        entries; simulated costs come from ``result.per_query`` when
        ``result`` is an :class:`AdvisorResult`.
        """
        indexes = (
            result.indexes if isinstance(result, AdvisorResult) else tuple(result)
        )
        executor = ApplyExecutor(self._db, store=store, journal_key=journal_key)
        report = executor.apply(indexes, dry_run=dry_run)
        if validate and not dry_run:
            if workload is None:
                raise ValueError("validate=True needs a workload")
            simulated: dict[str, float] = {}
            if isinstance(result, AdvisorResult):
                simulated = {qb.name: qb.cost_after for qb in result.per_query}
            for query in workload:
                cost = self._plan_cost(query.sql)
                # Weighted like AdvisorResult.per_query, so the two
                # columns are comparable when the workload's weights
                # have not moved since the advise.
                report.validation.append(
                    ValidationEntry(
                        name=query.name,
                        simulated=simulated.get(query.name),
                        materialized=cost * query.weight,
                    )
                )
        return report

    def rollback_design(
        self,
        *,
        store: StateStore | None = None,
        journal_key: str = "apply",
    ) -> ApplyReport:
        """Restore the pre-apply design recorded in the apply journal."""
        executor = ApplyExecutor(self._db, store=store, journal_key=journal_key)
        return executor.rollback()

    # ------------------------------------------------------------------
    # Combined pipeline: PARtitions, then INDexes on the fragments

    def suggest_combined(
        self,
        workload: Workload,
        budget_pages: int,
        replication_limit: float = 0.25,
    ) -> "CombinedResult":
        """Partitions first, then indexes over the partitioned design.

        The tool's full pipeline: run AutoPart, rewrite the workload onto
        the suggested fragments, and let the ILP index advisor work
        against the partitioned what-if catalog — indexes then land on
        the narrow fragment tables, compounding both benefits.
        """
        partitions = self.suggest_partitions(
            workload, replication_limit=replication_limit
        )
        if not partitions.schemes:
            indexes = self.suggest_indexes(workload, budget_pages=budget_pages)
            return CombinedResult(
                partitions=partitions,
                indexes=indexes,
                cost_before=partitions.cost_before,
                cost_after=indexes.cost_after,
            )

        # Register fragment shells in a private what-if catalog and move
        # the workload onto them.
        from repro.whatif.session import WhatIfSession

        session = WhatIfSession(self._db.catalog, self._config)
        for scheme in partitions.schemes.values():
            for position, fragment in enumerate(scheme.fragments):
                session.add_partition_table(
                    scheme.table_name, fragment, scheme.fragment_name(position)
                )
        rewritten = Workload(
            queries=[
                Query(name=name, sql=sql, weight=workload.query(name).weight)
                for name, sql in partitions.rewritten_sql.items()
            ],
            name=f"{workload.name}-partitioned",
        )
        advisor = IlpIndexAdvisor(session.catalog, self._config)
        indexes = advisor.recommend(rewritten, budget_pages=budget_pages)
        return CombinedResult(
            partitions=partitions,
            indexes=indexes,
            cost_before=partitions.cost_before,
            cost_after=indexes.cost_after,
        )

    # ------------------------------------------------------------------

    def workload_cost(self, workload: Workload) -> float:
        """Optimizer cost of the workload under the current design.

        Reuses one planner across calls; bindings and per-query plan
        costs are cached per catalog version, so repeated evaluations
        (e.g. pricing a design after each ``create_index``) replan only
        what the catalog change invalidated.
        """
        total = 0.0
        for query in workload:
            total += self._plan_cost(query.sql) * query.weight
        return total

    def _plan_cost(self, sql: str) -> float:
        """Planner cost of ``sql`` under the current design, memoized
        per (catalog version, SQL)."""
        key = (self._db.catalog.cache_key, sql)
        cost = self._plan_cost_cache.get(key)
        if cost is None:
            bound = self._cost_cache.bound_query(self._db.catalog, sql)
            cost = self._planner.plan(bound).total_cost
            self._plan_cost_cache[key] = cost
        return cost
