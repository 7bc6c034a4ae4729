"""Planner configuration: cost constants, enable flags, and hooks.

The cost constants are PostgreSQL's defaults (``costsize.c``). The
``enable_*`` flags reproduce PostgreSQL's planner GUCs — PARINDA's
What-If Join component drives ``enable_nestloop`` to make INUM's
nested-loop on / off plan pairs. ``relation_info_hook`` reproduces
the optimizer hooks the paper adds: a function the planner calls to
learn a relation's physical design (row/page counts and available
indexes), which the what-if layer overrides to inject hypothetical
structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index, Table
from repro.catalog.sizing import estimate_index_pages
from repro.catalog.statistics import ColumnStats, RelationStatistics
from repro.errors import PlannerError, UnknownObjectError


@dataclass(frozen=True)
class IndexInfo:
    """Physical information about one (real or hypothetical) index."""

    definition: Index
    leaf_pages: int
    height: int
    index_tuples: float

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def columns(self) -> tuple[str, ...]:
        return self.definition.columns


@dataclass(frozen=True)
class RelationInfo:
    """What the planner knows about one relation's physical design."""

    table: Table
    row_count: float
    page_count: int
    indexes: tuple[IndexInfo, ...]
    column_stats: dict[str, ColumnStats] = field(default_factory=dict)

    def stats_for(self, column: str) -> ColumnStats | None:
        return self.column_stats.get(column)


RelationInfoHook = Callable[["PlannerConfig", Catalog, str], RelationInfo]


def default_relation_info(
    config: "PlannerConfig", catalog: Catalog, table_name: str
) -> RelationInfo:
    """The stock hook: read physical design straight from the catalog."""
    table = catalog.table(table_name)
    try:
        stats: RelationStatistics | None = catalog.statistics(table_name)
    except UnknownObjectError:
        stats = None
    if stats is None:
        raise PlannerError(
            f"table {table_name!r} has no statistics; run Database.analyze()"
        )
    row_count = stats.table.row_count
    column_stats = dict(stats.columns)

    index_infos = []
    for index in catalog.indexes_on(table_name):
        leaf_pages = estimate_index_pages(table, index, row_count, column_stats)
        index_infos.append(
            IndexInfo(
                definition=index,
                leaf_pages=leaf_pages,
                height=btree_height(leaf_pages),
                index_tuples=row_count,
            )
        )
    return RelationInfo(
        table=table,
        row_count=row_count,
        page_count=stats.table.page_count,
        indexes=tuple(index_infos),
        column_stats=column_stats,
    )


def btree_height(leaf_pages: int) -> int:
    """Approximate internal height given leaf pages (fanout ~ 256)."""
    height = 0
    pages = leaf_pages
    while pages > 1:
        pages = (pages + 255) // 256
        height += 1
    return height


@dataclass(frozen=True)
class PlannerConfig:
    """Cost parameters, planner switches, and what-if hooks."""

    # -- PostgreSQL cost constants (defaults from postgresql.conf) -----
    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025
    effective_cache_size_pages: int = 16384  # 128 MB of 8 KB pages
    work_mem_bytes: int = 4 * 1024 * 1024

    # -- enable_* GUCs (the What-If Join component toggles these) ------
    enable_seqscan: bool = True
    enable_indexscan: bool = True
    enable_indexonlyscan: bool = True
    enable_nestloop: bool = True
    enable_hashjoin: bool = True
    enable_mergejoin: bool = True
    enable_hashagg: bool = True
    enable_sort: bool = True
    # INUM builds its plan cache without parameterized inner index scans
    # so every scan node executes exactly once and plan costs decompose
    # cleanly into internal + per-relation access costs.
    enable_parameterized_paths: bool = True

    # Ablation switch: ignore physical correlation in index-scan costing
    # (treat every column as correlation 0). Used by the ablation bench
    # to quantify how much the correlation term matters.
    use_correlation: bool = True

    # Cost added to disabled paths instead of pruning them (PG semantics:
    # disabled nodes can still be chosen when no alternative exists).
    disable_cost: float = 1.0e10

    # -- hooks ----------------------------------------------------------
    relation_info_hook: RelationInfoHook = default_relation_info

    def with_flags(self, **flags: bool) -> "PlannerConfig":
        """A copy with some enable flags changed (INUM's plan variants)."""
        return replace(self, **flags)

    def with_hook(self, hook: RelationInfoHook) -> "PlannerConfig":
        """A copy with a different relation-info hook installed."""
        return replace(self, relation_info_hook=hook)
