"""The WhatIfSession: hypothetical indexes, tables, and join control.

The session owns a *cloned* catalog (what-if tables are added there so
the binder sees them) and installs a relation-info hook that appends
hypothetical index metadata — leaf pages from Equation 1 — to whatever
the base hook reports. Planning through the session is therefore
byte-for-byte the same code path as planning against real structures.

Incremental invalidation works per table. Bound queries are cached by
SQL and plans by query, and each cached query is dropped when a table
it reads changes schema through the session: :meth:`add_table`,
:meth:`drop_table`, and :meth:`add_partition_table`, which changes both
the new shell and the parent (a partitioned parent's queries are
rewritten onto its shells, so their plain plans are superseded). Every
other query keeps its binding and its plans, so the caches hold at most
one entry per query. A catalog changed behind the session's back —
directly through :attr:`catalog` — moves its cache key without going
through those methods, and then every cached query is dropped.

A cached query keeps its prepared planner state (clause
classification, selectivities, row and width estimates — none of which
an index or a join flag can move) and one plan per join-flag vector it
was planned under, so switching a flag back re-serves the plans made
with it. Each plan records the design epoch of every table the query
reads (bumped whenever a hypothetical index on it is added or dropped)
and, per alias, the hypothetical indexes that can serve the query
(:func:`~repro.optimizer.paths.index_serves`: a plain or parameterized
access path). Equal epochs are a hit. When only epochs moved, the plan
is still reused if the serving indexes are unchanged: an index that
gives the query no path adds nothing the planner can pick, so the plan
would come out identical. Adding an index on ``specobj`` therefore
replans only the queries that index can serve, and a replan re-reads
only its relations' physical design through the hook.
"""

from __future__ import annotations

import itertools
import time

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index, Table, index_signature
from repro.catalog.sizing import estimate_index_pages
from repro.catalog.statistics import RelationStatistics
from repro.errors import WhatIfError
from repro.optimizer.config import (
    IndexInfo,
    PlannerConfig,
    RelationInfo,
    btree_height,
)
from repro.optimizer.planner import Planner, PreparedQuery
from repro.optimizer.paths import equi_join_columns, index_serves
from repro.optimizer.plans import IndexScan, Plan
from repro.sql.binder import BoundQuery, bind
from repro.sql.parser import parse_select
from repro.whatif.tables import derive_partition_stats, make_partition_shell

_name_counter = itertools.count(1)

#: The join-method flags: only ``optimizer/cost.py``'s join costs read
#: them, and a query over one relation builds no join.
JOIN_METHOD_FLAGS = ("enable_nestloop", "enable_hashjoin", "enable_mergejoin")

#: The planner flags :meth:`WhatIfSession.set_join_flags` may toggle.
JOIN_FLAGS = JOIN_METHOD_FLAGS + (
    "enable_seqscan",
    "enable_indexscan",
    "enable_indexonlyscan",
)


class WhatIfSession:
    """A private what-if view over a base catalog.

    Args:
        catalog: The real catalog to layer on. Never mutated.
        config: Base planner configuration; enable flags set through
            :meth:`set_join_flags` are applied on top.
    """

    def __init__(self, catalog: Catalog, config: PlannerConfig | None = None) -> None:
        self._base_catalog = catalog
        self._catalog = catalog.clone()
        self._hypothetical: dict[str, list[Index]] = {}
        base_config = config or PlannerConfig()
        base_hook = base_config.relation_info_hook
        self._config = base_config.with_hook(self._make_hook(base_hook))
        self._simulation_seconds = 0.0
        # Incremental-invalidation state: per-table design epochs and
        # the join-flag values a cached plan is looked up by.
        self._table_epochs: dict[str, int] = {}
        self._set_flags()
        # Bound queries by SQL and plans by query. ``_cached_under`` is
        # the catalog's cache key after the session's own last change
        # (see :meth:`_evict_stale`).
        self._cached_under = self._catalog.cache_key
        self._bound_cache: dict[str, BoundQuery] = {}
        self._plan_cache: dict[object, _CachedPlan] = {}
        # The plan :meth:`plan` served last, read by the methods that
        # also report its indexes.
        self._served: _FlagPlan | None = None
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # ------------------------------------------------------------------
    # What-if indexes

    def add_index(
        self,
        table_name: str,
        columns: tuple[str, ...] | list[str],
        name: str | None = None,
        unique: bool = False,
    ) -> Index:
        """Simulate an index; returns the hypothetical Index object.

        Only the statistics (Equation 1 leaf pages) are created — the
        call is O(1) regardless of table size, which is what makes
        interactive exploration feasible.
        """
        started = time.perf_counter()
        table = self._catalog.table(table_name)
        columns = tuple(columns)
        for column in columns:
            if not table.has_column(column):
                raise WhatIfError(
                    f"table {table_name!r} has no column {column!r}"
                )
        if name is None:
            name = f"whatif_{table_name}_{'_'.join(columns)}_{next(_name_counter)}"
        index = Index(
            name=name,
            table_name=table_name,
            columns=columns,
            unique=unique,
            hypothetical=True,
        )
        existing = self._hypothetical.setdefault(table_name, [])
        signatures = {index_signature(ix) for ix in existing}
        signatures.update(
            index_signature(ix) for ix in self._catalog.indexes_on(table_name)
        )
        if index_signature(index) in signatures:
            raise WhatIfError(
                f"an index on {table_name}({', '.join(columns)}) already exists "
                "in this session"
            )
        existing.append(index)
        self._touch(table_name)
        self._simulation_seconds += time.perf_counter() - started
        return index

    def drop_index(self, name: str) -> None:
        for table_name, indexes in self._hypothetical.items():
            for index in indexes:
                if index.name == name:
                    indexes.remove(index)
                    self._touch(table_name)
                    return
        raise WhatIfError(f"no hypothetical index named {name!r}")

    def clear_indexes(self) -> None:
        for table_name in list(self._hypothetical):
            self._touch(table_name)
        self._hypothetical.clear()

    @property
    def hypothetical_indexes(self) -> list[Index]:
        return [ix for indexes in self._hypothetical.values() for ix in indexes]

    def index_size_pages(self, index: Index) -> int:
        """Equation 1 size of a session index (leaf pages)."""
        table = self._catalog.table(index.table_name)
        stats = self._catalog.statistics(index.table_name)
        return estimate_index_pages(
            table, index, stats.table.row_count, stats.columns
        )

    # ------------------------------------------------------------------
    # What-if tables (partitions)

    def add_partition_table(
        self, parent_name: str, columns: tuple[str, ...] | list[str], name: str
    ) -> Table:
        """Simulate a vertical fragment of ``parent_name`` as a new table.

        The shell is registered in the session catalog (parser-visible,
        per the paper) and derived statistics are injected so the planner
        treats it as a populated table.
        """
        started = time.perf_counter()
        parent = self._catalog.table(parent_name)
        parent_stats = self._catalog.statistics(parent_name)
        shell = make_partition_shell(parent, tuple(columns), name)
        stats = derive_partition_stats(parent, parent_stats, shell)
        self._evict_stale()
        self._catalog.add_table(shell)
        self._catalog.set_statistics(shell.name, stats)
        self._schema_changed(parent_name, shell.name)
        self._simulation_seconds += time.perf_counter() - started
        return shell

    def add_table(self, table: Table, stats: RelationStatistics) -> None:
        """Register an arbitrary what-if table with explicit statistics."""
        self._evict_stale()
        self._catalog.add_table(table)
        self._catalog.set_statistics(table.name, stats)
        self._schema_changed(table.name)

    def drop_table(self, name: str) -> None:
        self._evict_stale()
        self._catalog.drop_table(name)
        self._schema_changed(name)

    # ------------------------------------------------------------------
    # What-if joins

    def set_join_flags(self, **flags: bool) -> None:
        """Toggle enable_* planner flags (e.g. ``enable_nestloop=False``)."""
        unknown = set(flags) - set(JOIN_FLAGS)
        if unknown:
            raise WhatIfError(f"unknown planner flags: {sorted(unknown)}")
        self._config = self._config.with_flags(**flags)
        self._set_flags()

    def _set_flags(self) -> None:
        """Flags affect plans, so each query keeps one plan per flag
        vector: switching a flag back re-serves the plans made with it.
        A one-relation query's vector leaves out the join-method flags."""
        self._flags = tuple(getattr(self._config, flag) for flag in JOIN_FLAGS)
        self._scan_flags = self._flags[len(JOIN_METHOD_FLAGS):]

    # ------------------------------------------------------------------
    # Planning

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def config(self) -> PlannerConfig:
        return self._config

    @property
    def simulation_seconds(self) -> float:
        """Wall-clock time spent creating what-if structures (E4)."""
        return self._simulation_seconds

    def planner(self) -> Planner:
        return Planner(self._catalog, self._config)

    def bind_sql(self, sql: str) -> BoundQuery:
        """Parse+bind ``sql``, cached until a table it reads changes."""
        self._evict_stale()
        cached = self._bound_cache.get(sql)
        if cached is None:
            cached = bind(self._catalog, parse_select(sql))
            self._bound_cache[sql] = cached
        return cached

    def plan(self, query: BoundQuery | str) -> Plan:
        """The session's plan of ``query`` (SQL text or a query bound
        against :attr:`catalog`), cached as the module docstring says."""
        self._served = served = self._serve(query)
        return served.plan

    def plan_with_indexes(self, query: BoundQuery | str) -> tuple[Plan, list[str]]:
        """:meth:`plan` and :meth:`hypothetical_indexes_used` from one
        cache lookup."""
        plan = self.plan(query)
        return plan, list(self._served.used)

    def cost(self, query: BoundQuery | str) -> float:
        return self.plan(query).total_cost

    def hypothetical_indexes_used(self, query: BoundQuery | str) -> list[str]:
        """Names of session indexes the optimizer picked for ``query``,
        sorted; read off the cached plan when it is current."""
        return self.plan_with_indexes(query)[1]

    # ------------------------------------------------------------------

    def _serve(self, query: BoundQuery | str) -> "_FlagPlan":
        """The current plan of ``query``, from the cache when it is
        exact (see the module docstring), else replanned."""
        self._evict_stale()
        if isinstance(query, str):
            key: object = query
            query = self.bind_sql(query)
        else:
            # The cache entry pins the bound query, so its id cannot be
            # reused while the entry is alive; identity check below.
            key = id(query)
        entry = self._plan_cache.get(key)
        if entry is None or entry.query is not query:
            entry = self._plan_cache[key] = _CachedPlan(query)
        design = tuple(map(self._table_epochs.get, entry.tables))
        flags = self._flags if entry.joins else self._scan_flags
        served = entry.plans.get(flags)
        relevant = None
        if served is not None:
            if served.design == design:
                self.plan_cache_hits += 1
                return served
            relevant = self._relevant(entry)
            if relevant == served.relevant:
                # None of the moved indexes can serve the query.
                served.design = design
                self.plan_cache_hits += 1
                return served
        planner = self.planner()
        if entry.prepared is None:
            entry.prepared = prepared = planner.prepare(query)
            entry.join_columns = tuple(
                equi_join_columns(alias, prepared.join_clauses)
                for alias in prepared.base_rels
            )
        elif entry.design != design:
            entry.prepared = entry.prepared.with_relation_info(
                lambda rel: planner.relation_info(rel.table_name)
            )
        entry.design = design
        if relevant is None:
            relevant = self._relevant(entry)
        self.plan_cache_misses += 1
        plan = planner.plan(query, entry.prepared)
        served = entry.plans[flags] = _FlagPlan(plan, design, relevant)
        return served

    def _evict_stale(self) -> None:
        """The session changes its catalog only through methods that
        drop what each change invalidates (:meth:`_schema_changed`). A
        cache key that moved otherwise means the catalog was changed
        behind the session's back, so every bound query and plan goes."""
        key = self._catalog.cache_key
        if key != self._cached_under:
            self._cached_under = key
            self._bound_cache.clear()
            self._plan_cache.clear()

    def _schema_changed(self, *tables: str) -> None:
        """Drop the bound queries and plans of every query that reads
        one of ``tables``; the rest stay exact."""
        moved = set(tables)
        self._bound_cache = {
            sql: bound
            for sql, bound in self._bound_cache.items()
            if moved.isdisjoint(rel.table.name for rel in bound.rels)
        }
        self._plan_cache = {
            key: entry
            for key, entry in self._plan_cache.items()
            if moved.isdisjoint(entry.tables)
        }
        self._cached_under = self._catalog.cache_key

    def _relevant(self, entry: "_CachedPlan") -> tuple:
        """Per alias, in hook order, the session indexes that give the
        query an access path (:func:`index_serves`). Any other index
        adds no path, so it cannot change the plan."""
        hypothetical = self._hypothetical
        return tuple(
            tuple(
                index
                for index in hypothetical.get(rel.table_name, ())
                if index_serves(rel, index.columns, joined)
            )
            for rel, joined in zip(
                entry.prepared.base_rels.values(), entry.join_columns
            )
        )

    def _touch(self, table_name: str) -> None:
        self._table_epochs[table_name] = self._table_epochs.get(table_name, 0) + 1

    def _make_hook(self, base_hook):
        def hook(config: PlannerConfig, catalog: Catalog, table_name: str) -> RelationInfo:
            info = base_hook(config, catalog, table_name)
            extra = self._hypothetical.get(table_name)
            if not extra:
                return info
            added = []
            for index in extra:
                leaf_pages = estimate_index_pages(
                    info.table, index, info.row_count, info.column_stats
                )
                added.append(
                    IndexInfo(
                        definition=index,
                        leaf_pages=leaf_pages,
                        height=btree_height(leaf_pages),
                        index_tuples=info.row_count,
                    )
                )
            return RelationInfo(
                table=info.table,
                row_count=info.row_count,
                page_count=info.page_count,
                indexes=info.indexes + tuple(added),
                column_stats=info.column_stats,
            )

        return hook


class _CachedPlan:
    """One query's prepared state and its plan per join-flag vector."""

    __slots__ = (
        "query", "tables", "joins", "prepared", "design", "join_columns", "plans",
    )

    def __init__(self, query: BoundQuery) -> None:
        self.query = query
        self.tables = tuple(sorted({entry.table.name for entry in query.rels}))
        self.joins = len(query.rels) > 1
        self.prepared: PreparedQuery | None = None
        # The table design epochs ``prepared``'s relation info was read
        # under, and per alias of ``prepared.base_rels`` its equi-join
        # columns.
        self.design: tuple = ()
        self.join_columns: tuple[frozenset[str], ...] = ()
        self.plans: dict[tuple, _FlagPlan] = {}


class _FlagPlan:
    """A plan made under one join-flag vector, with the table design
    epochs it holds for and the session indexes that served the query
    when it was made."""

    __slots__ = ("plan", "design", "relevant", "used")

    def __init__(self, plan: Plan, design: tuple, relevant: tuple) -> None:
        self.plan = plan
        self.design = design
        self.relevant = relevant
        # Hypothetical index names ``plan`` scans, sorted.
        self.used = tuple(sorted({
            node.index_name
            for node in plan.walk()
            if isinstance(node, IndexScan) and node.hypothetical
        }))
