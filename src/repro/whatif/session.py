"""The WhatIfSession: hypothetical indexes, tables, and join control.

The session owns a *cloned* catalog (what-if tables are added there so
the binder sees them) and installs a relation-info hook that appends
hypothetical index metadata — leaf pages from Equation 1 — to whatever
the base hook reports. Planning through the session is therefore
byte-for-byte the same code path as planning against real structures.

Incremental invalidation: each plan produced through :meth:`plan` is
cached with what it was planned under — the catalog version, the
join-flag values, a design epoch per referenced table (bumped whenever a
hypothetical index on it is added or dropped), and per alias the
hypothetical indexes that can serve the query
(:func:`~repro.optimizer.paths.index_serves`: a plain or parameterized
access path). Equal epochs are a hit. When only table epochs moved, the
plan is still reused if the serving indexes are unchanged: an index
that gives the query no path adds nothing the planner can pick, so the
plan would come out identical. Adding an index on ``specobj`` therefore
replans only the queries that index can serve. Bound queries are cached
per catalog version, so interactive loops re-parse nothing; when the
version moves, bound queries and plans cached under the old one are
dropped, so the caches hold one entry per query at most. A query
that does have to be replanned at an unchanged catalog version keeps
its prepared planner state (clause classification, selectivities, row
and width estimates — none of which an index or a join flag can move)
and only has its relations' physical design re-read through the hook.
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

#: The planner flags :meth:`WhatIfSession.set_join_flags` may toggle.
_JOIN_FLAGS = (
    "enable_nestloop",
    "enable_hashjoin",
    "enable_mergejoin",
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
        # Incremental-invalidation state: per-table design epochs plus
        # the join-flag values; together with the catalog version they
        # form the design fingerprint each cached plan is keyed by.
        self._table_epochs: dict[str, int] = {}
        self._flags = self._flag_values()
        # Bound queries by SQL and plans by query, both for the catalog
        # key ``_cached_under`` only (see :meth:`_evict_stale`).
        self._cached_under = self._catalog.cache_key
        self._bound_cache: dict[str, BoundQuery] = {}
        self._plan_cache: dict[object, _CachedPlan] = {}
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
        self._catalog.add_table(shell)
        self._catalog.set_statistics(shell.name, stats)
        self._simulation_seconds += time.perf_counter() - started
        return shell

    def add_table(self, table: Table, stats: RelationStatistics) -> None:
        """Register an arbitrary what-if table with explicit statistics."""
        self._catalog.add_table(table)
        self._catalog.set_statistics(table.name, stats)

    def drop_table(self, name: str) -> None:
        self._catalog.drop_table(name)

    # ------------------------------------------------------------------
    # What-if joins

    def set_join_flags(self, **flags: bool) -> None:
        """Toggle enable_* planner flags (e.g. ``enable_nestloop=False``)."""
        unknown = set(flags) - set(_JOIN_FLAGS)
        if unknown:
            raise WhatIfError(f"unknown planner flags: {sorted(unknown)}")
        self._config = self._config.with_flags(**flags)
        # Flags affect every plan, so plans are keyed by their values:
        # switching a flag back re-serves the plans made under it.
        self._flags = self._flag_values()

    def _flag_values(self) -> tuple:
        return tuple(getattr(self._config, flag) for flag in _JOIN_FLAGS)

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
        """Parse+bind ``sql``, cached per catalog version."""
        self._evict_stale()
        cached = self._bound_cache.get(sql)
        if cached is None:
            cached = bind(self._catalog, parse_select(sql))
            self._bound_cache[sql] = cached
        return cached

    def plan(self, query: BoundQuery | str) -> Plan:
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
        fingerprint = self._fingerprint(entry.tables)
        cached = entry.fingerprint
        if cached == fingerprint:
            self.plan_cache_hits += 1
            return entry.plan
        # Same catalog version, so the same tables and statistics: only
        # hypothetical indexes or flags moved since the query was prepared.
        same_catalog = cached is not None and cached[0] == fingerprint[0]
        if same_catalog:
            relevant = self._relevant(entry)
            if cached[1] == fingerprint[1] and relevant == entry.relevant:
                # None of the moved indexes can serve the query.
                entry.fingerprint = fingerprint
                self.plan_cache_hits += 1
                return entry.plan
        planner = self.planner()
        if same_catalog:
            entry.prepared = entry.prepared.with_relation_info(
                lambda rel: planner.relation_info(rel.table_name)
            )
        else:
            entry.prepared = prepared = planner.prepare(query)
            entry.join_columns = tuple(
                equi_join_columns(alias, prepared.join_clauses)
                for alias in prepared.base_rels
            )
            relevant = self._relevant(entry)
        self.plan_cache_misses += 1
        plan = entry.plan = planner.plan(query, entry.prepared)
        entry.fingerprint = fingerprint
        entry.relevant = relevant
        entry.used = tuple(sorted({
            node.index_name
            for node in plan.walk()
            if isinstance(node, IndexScan) and node.hypothetical
        }))
        return plan

    def cost(self, query: BoundQuery | str) -> float:
        return self.plan(query).total_cost

    def hypothetical_indexes_used(self, query: BoundQuery | str) -> list[str]:
        """Names of session indexes the optimizer picked for ``query``,
        sorted; read off the cached plan when it is current."""
        key = query if isinstance(query, str) else id(query)
        entry = self._plan_cache.get(key)
        if entry is None or entry.fingerprint != self._fingerprint(entry.tables):
            self.plan(query)
            entry = self._plan_cache[key]
        return list(entry.used)

    # ------------------------------------------------------------------

    def _evict_stale(self) -> None:
        """Once the session catalog's cache key moves, drop every bound
        query and plan cached under the old one: the catalog version
        only grows, so none of them could be hit again."""
        key = self._catalog.cache_key
        if key != self._cached_under:
            self._cached_under = key
            self._bound_cache.clear()
            self._plan_cache.clear()

    def _fingerprint(self, tables: tuple[str, ...]) -> tuple:
        """What a cached plan over ``tables`` was planned under: the
        catalog version, the join-flag values and the design epoch of
        each table."""
        return (
            self._catalog.cache_key,
            self._flags,
            tuple(map(self._table_epochs.get, tables)),
        )

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
    """One query's plan and what it was planned under."""

    __slots__ = (
        "query", "tables", "fingerprint", "prepared", "join_columns",
        "relevant", "plan", "used",
    )

    def __init__(self, query: BoundQuery) -> None:
        self.query = query
        self.tables = tuple(sorted({entry.table.name for entry in query.rels}))
        self.fingerprint: tuple | None = None
        self.prepared: PreparedQuery | None = None
        # Per alias of ``prepared.base_rels``: its equi-join columns,
        # and the session indexes that served it when last planned.
        self.join_columns: tuple[frozenset[str], ...] = ()
        self.relevant: tuple = ()
        self.plan: Plan | None = None
        # Hypothetical index names ``plan`` scans, sorted.
        self.used: tuple[str, ...] = ()
