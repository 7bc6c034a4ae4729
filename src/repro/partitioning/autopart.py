"""The AutoPart algorithm: iterative composite-fragment selection.

Faithful to Papadomanolakis & Ailamaki (SSDBM 2004) as summarized in
PARINDA §3.3:

1. **Atomic fragments** — per table, group columns by identical query
   usage; this is the initial layout.
2. **Fragment generation** — composite candidates are unions of a
   selected fragment with an atomic fragment (or two atomics) that some
   query co-accesses.
3. **Fragment selection** — each candidate layout is priced through the
   what-if machinery (shell tables + rewritten queries, no data moved);
   the best-improving composite is adopted if the *replication
   constraint* (total fragment size vs. original table size) allows.
4. Iterate until no candidate improves the workload; suggest the final
   layout with per-query benefits and the rewritten workload.

Pricing each distinct rewritten query once: candidate layouts within
(and across) composite steps overlap almost entirely — one trial
changes one table's fragments and leaves everything else alone — and a
query only ever reads the few fragments that cover its columns. The
what-if cost of a query under a layout is therefore memoised by the
query's *footprint* (``PartitionRewriter.footprint``): per relation, the
physical fragments the rewrite joins in its place. A trial that merges
two fragments a query never reads leaves that query's footprint, and so
its cost, where it was; on the 10-query SDSS run 2 350 (query, trial)
pairs hold about 400 footprints. Fragment names and aliases carry the
fragment's *position* in the layout and the footprint does not, so the
memo rests on the planner's cost being position-invariant — pinned, for
every pair the search visits, by ``TestFootprintPricing`` in
``tests/test_autopart.py``. A trial's ``WhatIfSession`` is built only
when some footprint in it is unpriced, from fragment shells and derived
statistics shared across sessions (keyed by the physical fragment and
its name). On the result, ``rebinds_shared`` counts footprint hits,
``evaluations`` planner pricings and ``shells_shared`` shell reuse.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.advisor.ilp_advisor import QueryBenefit
from repro.catalog.catalog import Catalog
from repro.catalog.schema import PartitionScheme
from repro.catalog.sizing import BLOCK_SIZE, column_width
from repro.errors import AdvisorError, ReproError
from repro.optimizer.config import PlannerConfig
from repro.optimizer.planner import Planner
from repro.resilience import faults
from repro.resilience.degrade import DegradedResult
from repro.partitioning.fragments import (
    atomic_fragments,
    attribute_usage,
    co_accessed,
    fragment_with_pk,
)
from repro.partitioning.rewrite import PartitionRewriter
from repro.sql.binder import BoundQuery, bind
from repro.sql.printer import to_sql
from repro.whatif.session import WhatIfSession
from repro.whatif.tables import derive_partition_stats, make_partition_shell
from repro.workloads.workload import Workload

_MIN_IMPROVEMENT = 1e-6


@dataclass
class PartitionAdvisorResult:
    """The suggested partitions plus benefit accounting."""

    schemes: dict[str, PartitionScheme]
    cost_before: float
    cost_after: float
    per_query: list[QueryBenefit]
    rewritten_sql: dict[str, str]
    iterations: int
    evaluations: int  # planner pricings: footprints nobody had priced
    elapsed_seconds: float
    replication_limit: float
    shells_shared: int = 0
    rebinds_shared: int = 0  # footprint hits: pricings the memo answered
    # Graceful-degradation records (quarantined queries); quarantined
    # queries are excluded from per_query and all cost totals.
    degraded: list[DegradedResult] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        if self.cost_after <= 0:
            return float("inf")
        return self.cost_before / self.cost_after

    @property
    def benefit(self) -> float:
        return self.cost_before - self.cost_after


@dataclass
class _Layout:
    """One candidate layout: per-table fragment lists (logical columns,
    no primary key)."""

    fragments: dict[str, list[tuple[str, ...]]] = field(default_factory=dict)

    def copy(self) -> "_Layout":
        return _Layout(fragments={t: list(f) for t, f in self.fragments.items()})


class AutoPartAdvisor:
    """Automatic partition suggestion component."""

    def __init__(
        self,
        catalog: Catalog,
        config: PlannerConfig | None = None,
        replication_limit: float = 0.25,
        max_iterations: int = 10,
        tables: list[str] | None = None,
        candidates_per_iteration: int = 24,
    ) -> None:
        """Args:
        replication_limit: Extra storage allowed for replicated
            columns (primary keys and overlapping fragments), as a
            fraction of the original table size — the paper's
            "maximum space taken by replicated columns" constraint.
        tables: Restrict partitioning to these tables (default: every
            table the workload references).
        """
        if replication_limit < 0:
            raise AdvisorError("replication limit must be non-negative")
        self._catalog = catalog
        self._config = config or PlannerConfig()
        self._replication_limit = replication_limit
        self._max_iterations = max_iterations
        self._only_tables = set(tables) if tables is not None else None
        self._candidates_per_iteration = candidates_per_iteration

    # ------------------------------------------------------------------

    def recommend(self, workload: Workload) -> PartitionAdvisorResult:
        started = time.perf_counter()
        self._evaluations = 0
        # The one cost memo: (query name, footprint) -> what-if cost.
        self._cost_cache: dict[tuple, float] = {}
        self._footprint_hits = 0
        # Fragment shells + derived stats, shared by every trial session.
        self._shell_cache: dict[tuple, tuple] = {}
        self._shells_shared = 0
        # Per-query failure isolation: a query that cannot be bound or
        # priced is quarantined for the rest of this run — dropped from
        # every cost total and from per_query — instead of aborting.
        self._failed: set[str] = set()
        self._degraded: list[DegradedResult] = []
        # Bind each query once; usage analysis and every layout
        # evaluation start from the same bound form (rewrites re-bind
        # against the shell catalog).
        self._bound = {}
        for query in workload:
            try:
                self._bound[query.name] = query.bind(self._catalog)
            except ReproError as exc:
                self._quarantine(query.name, exc)
        if not self._bound:
            raise AdvisorError(
                "every workload query failed binding: "
                + "; ".join(str(entry) for entry in self._degraded)
            )

        usage = attribute_usage(self._bound)
        tables = sorted(
            t
            for t in usage
            if (self._only_tables is None or t in self._only_tables)
            and self._catalog.table(t).primary_key
        )
        if not tables:
            raise AdvisorError(
                "no partitionable tables (workload references none with a "
                "primary key)"
            )

        atomics: dict[str, list[tuple[str, ...]]] = {}
        layout = _Layout()
        for table_name in tables:
            table = self._catalog.table(table_name)
            frags = atomic_fragments(table, usage[table_name])
            atomics[table_name] = frags
            layout.fragments[table_name] = list(frags)

        cost_before = self._workload_cost(workload, _Layout())
        # The paper's algorithm starts from the atomic layout and grows
        # composite fragments; only at the end is the final layout
        # compared against the unpartitioned design.
        current_cost = self._workload_cost(workload, layout)

        iterations = 0
        for _ in range(self._max_iterations):
            iterations += 1
            candidate = self._best_composite_step(
                workload, layout, atomics, usage, current_cost
            )
            if candidate is None:
                break
            layout, current_cost = candidate

        if current_cost > cost_before:
            # Partitioning never beat the original design: suggest none.
            layout = _Layout()
            layout.fragments = {t: [] for t in tables}
            current_cost = cost_before

        result = self._finalize(
            workload, layout, cost_before, current_cost, iterations
        )
        result.elapsed_seconds = time.perf_counter() - started
        result.evaluations = self._evaluations
        result.shells_shared = self._shells_shared
        result.rebinds_shared = self._footprint_hits
        result.degraded = list(self._degraded)
        return result

    def _quarantine(self, name: str, exc: BaseException) -> None:
        if name in self._failed:
            return
        self._failed.add(name)
        self._degraded.append(
            DegradedResult("optimizer.plan", name, "quarantined", str(exc))
        )

    # ------------------------------------------------------------------
    # Fragment generation / selection

    def _best_composite_step(
        self,
        workload: Workload,
        layout: _Layout,
        atomics: dict[str, list[tuple[str, ...]]],
        usage: dict[str, dict[str, frozenset[str]]],
        current_cost: float,
    ):
        candidates = self._generate_candidates(layout, atomics, usage)
        trials: list[_Layout] = []
        for _score, table_name, composite in candidates:
            trial = layout.copy()
            trial_frags = [
                f
                for f in trial.fragments[table_name]
                if not (set(f) <= set(composite))
            ]
            trial_frags.append(composite)
            # Columns dropped from all fragments must stay covered:
            # re-add atomics not subsumed.
            covered = set().union(*map(set, trial_frags))
            for other in atomics[table_name]:
                if not set(other) <= covered:
                    trial_frags.append(other)
                    covered |= set(other)
            trial.fragments[table_name] = trial_frags
            if not self._replication_ok(table_name, trial_frags):
                continue
            trials.append(trial)

        costs = [self._workload_cost(workload, trial) for trial in trials]
        best: tuple[_Layout, float] | None = None
        for trial, cost in zip(trials, costs):
            if cost < current_cost - _MIN_IMPROVEMENT and (
                best is None or cost < best[1]
            ):
                best = (trial, cost)
        return best

    def _generate_candidates(
        self,
        layout: _Layout,
        atomics: dict[str, list[tuple[str, ...]]],
        usage: dict[str, dict[str, frozenset[str]]],
    ) -> list[tuple[float, str, tuple[str, ...]]]:
        """Composite candidates ranked by co-access strength.

        A composite only helps queries that currently join its parts
        back together, so candidates are scored by how many queries
        touch columns from both sides; the top
        ``candidates_per_iteration`` are evaluated with the what-if
        optimizer.
        """
        scored: list[tuple[float, str, tuple[str, ...]]] = []
        for table_name, selected in layout.fragments.items():
            pool = selected if selected else list(atomics[table_name])
            seen: set[tuple[str, ...]] = set(map(tuple, selected))
            column_order = self._catalog.table(table_name).column_names
            for base in pool:
                queries_base: set[str] = set()
                for column in base:
                    queries_base |= usage[table_name].get(column, frozenset())
                for atom in atomics[table_name]:
                    if atom == base:
                        continue
                    if not co_accessed(base, atom, usage[table_name]):
                        continue
                    composite = tuple(
                        c for c in column_order if c in set(base) | set(atom)
                    )
                    if composite in seen:
                        continue
                    seen.add(composite)
                    queries_atom: set[str] = set()
                    for column in atom:
                        queries_atom |= usage[table_name].get(column, frozenset())
                    score = float(len(queries_base & queries_atom))
                    scored.append((score, table_name, composite))
        scored.sort(key=lambda item: (-item[0], item[1], item[2]))
        return scored[: self._candidates_per_iteration]

    def _replication_ok(
        self, table_name: str, fragments: list[tuple[str, ...]]
    ) -> bool:
        """The paper's constraint: "maximum space taken by replicated
        columns in the partitions".

        Only genuine replication counts — a non-key column stored in
        more than one fragment. Primary-key copies and per-fragment
        tuple overhead are inherent to AutoPart's design and are not
        charged against the limit.
        """
        table = self._catalog.table(table_name)
        stats = self._catalog.statistics(table_name)
        rows = stats.table.row_count
        pk = set(table.primary_key)

        appearances: dict[str, int] = {}
        for fragment in fragments:
            for column in fragment:
                if column not in pk:
                    appearances[column] = appearances.get(column, 0) + 1

        replicated_bytes = 0.0
        for column, count in appearances.items():
            if count <= 1:
                continue
            width = column_width(
                table.column(column).dtype, stats.columns.get(column)
            )
            replicated_bytes += (count - 1) * width * rows
        limit_bytes = (
            stats.table.page_count * BLOCK_SIZE * self._replication_limit
        )
        return replicated_bytes <= limit_bytes

    # ------------------------------------------------------------------
    # Pricing

    def _schemes_for(self, layout: _Layout) -> dict[str, PartitionScheme]:
        schemes: dict[str, PartitionScheme] = {}
        for table_name, fragments in layout.fragments.items():
            if not fragments:
                continue
            table = self._catalog.table(table_name)
            schemes[table_name] = PartitionScheme(
                table_name=table_name,
                fragments=tuple(fragment_with_pk(table, f) for f in fragments),
            )
        return schemes

    def _workload_cost(self, workload: Workload, layout: _Layout) -> float:
        schemes = self._schemes_for(layout)
        rewriter = PartitionRewriter(schemes)
        # Built on the first footprint nobody has priced; a layout whose
        # footprints are all known never gets a session.
        session: WhatIfSession | None = None
        total = 0.0
        for query in workload:
            if query.name in self._failed:
                continue  # quarantined: contributes nothing, everywhere
            bound = self._bound[query.name]
            try:
                key = (query.name, rewriter.footprint(bound))
                cost = self._cost_cache.get(key)
                if cost is None:
                    faults.check("optimizer.plan", query.name)
                    if schemes and session is None:
                        session = self._session_for(schemes)
                    cost = self._query_cost(bound, rewriter, session)
                    self._cost_cache[key] = cost
                    self._evaluations += 1
                else:
                    self._footprint_hits += 1
            except ReproError as exc:
                self._quarantine(query.name, exc)
                continue
            total += cost * query.weight
        return total

    def _session_for(self, schemes: dict[str, PartitionScheme]) -> WhatIfSession:
        session = WhatIfSession(self._catalog, self._config)
        for table_name, scheme in schemes.items():
            for position, physical in enumerate(scheme.fragments):
                shell, stats = self._shell_for(
                    table_name, physical, scheme.fragment_name(position)
                )
                session.add_table(shell, stats)
        return session

    def _shell_for(
        self, table_name: str, physical: tuple[str, ...], fragment_name: str
    ) -> tuple:
        """One shell table + derived statistics per distinct fragment.

        Trial layouts overlap almost entirely, so the same fragment is
        registered in many sessions; its shell is built and its
        statistics derived once.
        """
        key = (table_name, physical, fragment_name)
        entry = self._shell_cache.get(key)
        if entry is not None:
            self._shells_shared += 1
            return entry
        parent = self._catalog.table(table_name)
        parent_stats = self._catalog.statistics(table_name)
        shell = make_partition_shell(parent, physical, fragment_name)
        stats = derive_partition_stats(parent, parent_stats, shell)
        entry = self._shell_cache[key] = (shell, stats)
        return entry

    def _query_cost(
        self,
        bound: BoundQuery,
        rewriter: PartitionRewriter,
        session: WhatIfSession | None,
    ) -> float:
        if session is None:  # nothing is partitioned
            return Planner(self._catalog, self._config).plan(bound).total_cost
        rebound = bind(session.catalog, rewriter.rewrite(bound))
        return session.planner().plan(rebound).total_cost

    # ------------------------------------------------------------------

    def _finalize(
        self,
        workload: Workload,
        layout: _Layout,
        cost_before: float,
        cost_after: float,
        iterations: int,
    ) -> PartitionAdvisorResult:
        """Per-query benefits and the rewritten workload of ``layout``.

        The search priced every surviving query under both the
        unpartitioned design and ``layout``, so the costs are memo reads;
        the SQL is rendered from ``layout``'s own fragment names.
        """
        schemes = self._schemes_for(layout)
        rewriter = PartitionRewriter(schemes)
        unpartitioned = PartitionRewriter({})
        per_query: list[QueryBenefit] = []
        rewritten_sql: dict[str, str] = {}
        for query in workload:
            if query.name in self._failed:
                # Quarantined: untouched by the recommendation; the
                # original SQL passes through so replays stay runnable.
                rewritten_sql[query.name] = query.sql.strip()
                continue
            bound = self._bound[query.name]
            base_key = (query.name, unpartitioned.footprint(bound))
            before = self._cost_cache[base_key] * query.weight
            if not schemes:
                after = before
                rewritten_sql[query.name] = query.sql.strip()
                used: list[str] = []
            else:
                rewritten = rewriter.rewrite(bound)
                rewritten_sql[query.name] = to_sql(rewritten)
                key = (query.name, rewriter.footprint(bound))
                after = self._cost_cache[key] * query.weight
                used = sorted({t.name for t in rewritten.tables if "__frag" in t.name})
            per_query.append(
                QueryBenefit(
                    name=query.name,
                    cost_before=before,
                    cost_after=after,
                    indexes_used=used,  # fragments used, reusing the field
                )
            )
        return PartitionAdvisorResult(
            schemes=schemes,
            cost_before=cost_before,
            cost_after=cost_after,
            per_query=per_query,
            rewritten_sql=rewritten_sql,
            iterations=iterations,
            evaluations=0,
            elapsed_seconds=0.0,
            replication_limit=self._replication_limit,
        )
