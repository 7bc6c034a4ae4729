"""The INUM cost model for one query.

Cache construction
    For every combination of interesting orders (one per relation, or
    none) and for nested-loop enabled/disabled — the paper's What-If
    Join component — the query is optimized against *synthetic*
    hypothetical indexes that deliver exactly those orders, with real
    indexes hidden and parameterized paths disabled so each scan runs
    exactly once per loop. The plan cost then decomposes exactly::

        total = internal + Σ_rel loops(rel) × access_cost(rel)

    and ``internal`` (join/sort/aggregate work) is cached.

    The nested-loops-off pass runs only when the nested-loops-on join
    search ends with a ``NestLoop`` in some relation set, as its
    cheapest plan or a per-order best. Otherwise it would return the
    very same plan (:meth:`JoinSearch.keeps_nestloop` gives the proof),
    so the pair keeps one entry. An off entry equal to its on twin in
    internal cost and loops is dropped as well. A later exact duplicate
    moves neither a minimum nor a first-minimum arg-min, so no estimate
    changes. ``tests/reference.py`` builds the cache the long way, both
    passes for every combination, as the oracle.

    Classification and restriction selectivities do not depend on the
    available indexes, so the query is prepared once and each
    per-combination optimizer call reuses that state with only the
    synthetic index lists swapped (``Planner.plan_prepared``).

Estimation
    The model is the plan cache plus per-relation access costs
    (``_access_info``: analytic, the same ``cost_index_scan`` the
    optimizer uses; ``inf`` without sizing the index when
    :func:`~repro.optimizer.paths.index_usable` says no plain index
    scan exists). Combining the two into a cost — per relation the
    best access the configuration offers, then the minimum over cache
    entries whose order requirements it can satisfy, no optimizer call —
    is :class:`~repro.inum.batch.WorkloadEvaluator`'s job alone;
    ``estimate`` / ``estimate_batch`` are conveniences over it.

Sharing
    When a :class:`~repro.parallel.caches.CostCache` is supplied,
    Equation-1 index sizes, sequential-scan costs, and per-relation
    access costs are shared across every model built against the same
    catalog — the quantities are pure functions of (catalog version,
    restriction signature, index signature), so sharing is lossless.
    The cache's ``inum`` section keeps the built model itself, so a
    re-advise on an unchanged catalog gets this very object back.

Lifetime
    A model's observable state — plan cache, sequential-scan costs,
    interesting orders — is fixed once ``__init__`` returns. Only the
    per-(alias, index) access memo grows afterwards (and the
    ``estimates_served`` tally), every value a pure function of its
    key, which is what makes one object safe to hand to every advisor
    that shares the cache (one advising thread per cache).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index, index_signature
from repro.catalog.sizing import estimate_index_pages
from repro.errors import PlannerError
from repro.optimizer.config import IndexInfo, PlannerConfig, RelationInfo
from repro.optimizer.cost import clamp_rows
from repro.optimizer.paths import (
    BaseRel,
    index_paths,
    index_usable,
    seqscan_path,
)
from repro.optimizer.planner import Planner, PreparedQuery
from repro.optimizer.plans import NestLoop, Plan, Scan
from repro.sql.ast_nodes import ColumnRef
from repro.sql.binder import BoundQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine → model)
    from repro.parallel.caches import CostCache


# Interesting-order combinations optimized per query unless a caller
# caps the model lower (or higher) itself.
MAX_COMBINATIONS = 32


@dataclass(frozen=True)
class CacheEntry:
    """One cached optimizer plan, decomposed."""

    order_vector: tuple[tuple[str, str | None], ...]  # (alias, order column)
    nestloop_enabled: bool
    internal_cost: float
    loops: tuple[tuple[str, float], ...]  # (alias, scan executions)
    plan: Plan

    def loops_of(self, alias: str) -> float:
        for a, value in self.loops:
            if a == alias:
                return value
        return 1.0


@dataclass
class InumStatistics:
    """Bookkeeping: how much optimizer work INUM saved."""

    optimizer_calls: int = 0
    estimates_served: int = 0
    cache_entries: int = 0
    # Number of interesting-order combinations dropped because the
    # product exceeded max_combinations — nonzero means the model's
    # fidelity is degraded and estimates may over-approximate.
    combinations_truncated: int = 0


@dataclass(frozen=True)
class _AccessInfo:
    """Precomputed access characteristics of one candidate index."""

    cost: float
    provides: frozenset[str]  # order columns this access delivers


# An index with no plain path for the relation serves no order at no
# finite cost.
_UNUSABLE = _AccessInfo(cost=float("inf"), provides=frozenset())


class InumModel:
    """INUM cost model for a single bound query."""

    def __init__(
        self,
        catalog: Catalog,
        query: BoundQuery,
        config: PlannerConfig | None = None,
        max_combinations: int = MAX_COMBINATIONS,
        cost_cache: "CostCache | None" = None,
    ) -> None:
        self._catalog = catalog
        self._query = query
        base = config or PlannerConfig()
        # Hide real indexes during cache construction and at estimation
        # time: the configuration under evaluation is the only physical
        # design INUM should see.
        self._config = base.with_flags(enable_parameterized_paths=False)
        self._max_combinations = max_combinations
        # Weak, because the cache's ``inum`` section stores this model:
        # a strong back-reference would turn every CostCache — and the
        # catalogs, plans and prepared state it reaches — into cyclic
        # garbage that only the collector frees. Never hold the cache
        # (or anything that holds it) strongly from a model.
        self._cost_cache_ref = (
            weakref.ref(cost_cache) if cost_cache is not None else None
        )
        self._config_fp = (
            cost_cache.fingerprint(self._config) if cost_cache is not None else None
        )
        self.stats = InumStatistics()

        self._stripped = self._strip_indexes(self._config)
        planner = Planner(catalog, self._stripped)
        self._prepared: PreparedQuery = planner.prepare(query)
        self._seq_costs: dict[str, float] = {}
        for alias, rel in self._prepared.base_rels.items():
            self._seq_costs[alias] = self._seq_cost(rel)
        self._orders = self._interesting_orders()
        self._entries: list[CacheEntry] = []
        self._access_cache: dict[tuple[str, tuple[str, ...]], _AccessInfo] = {}
        self._rel_keys: dict[str, tuple] = (
            {a: self._rel_signature(r) for a, r in self._prepared.base_rels.items()}
            if cost_cache is not None
            else {}
        )
        self._build_cache()

    @property
    def _cost_cache(self) -> "CostCache | None":
        """The shared cache, or ``None`` without one (or once its owner
        dropped it — costs are then computed directly, same values)."""
        ref = self._cost_cache_ref
        return ref() if ref is not None else None

    # ------------------------------------------------------------------
    # Cache construction

    def _strip_indexes(self, config: PlannerConfig) -> PlannerConfig:
        base_hook = config.relation_info_hook

        def hook(cfg: PlannerConfig, catalog: Catalog, table_name: str) -> RelationInfo:
            info = base_hook(cfg, catalog, table_name)
            return RelationInfo(
                table=info.table,
                row_count=info.row_count,
                page_count=info.page_count,
                indexes=(),
                column_stats=info.column_stats,
            )

        return config.with_hook(hook)

    def _seq_cost(self, rel: BaseRel) -> float:
        cache = self._cost_cache
        if cache is None:
            return seqscan_path(self._config, rel).total_cost
        return cache.seq_cost(
            self._catalog,
            self._config_fp,
            rel.table_name,
            len(rel.restrictions),
            lambda: seqscan_path(self._config, rel).total_cost,
        )

    def _rel_signature(self, rel: BaseRel) -> tuple:
        """What per-relation access costs depend on, besides the index.

        Restriction order matters (index matching takes the first
        equality per column), so the signature preserves it.
        """
        return (
            self._catalog.cache_key,
            self._config_fp,
            rel.table_name,
            tuple(repr(c.expr) for c in rel.restrictions),
            tuple(sorted(rel.required_columns)),
        )

    def _index_pages(self, info: RelationInfo, index: Index) -> int:
        cache = self._cost_cache
        if cache is None:
            return estimate_index_pages(
                info.table, index, info.row_count, info.column_stats
            )
        return cache.index_pages(
            self._catalog, info.table, index, info.row_count, info.column_stats
        )

    def _interesting_orders(self) -> dict[str, list[str]]:
        """Per-alias order columns worth caching plans for."""
        orders: dict[str, list[str]] = {a: [] for a in self._query.aliases}

        def note(alias: str | None, column: str) -> None:
            if alias in orders and column not in orders[alias]:
                orders[alias].append(column)

        for clause in self._prepared.join_clauses:
            if clause.equi_join is not None:
                (a1, c1), (a2, c2) = clause.equi_join
                note(a1, c1)
                note(a2, c2)
        stmt = self._query.statement
        for key in stmt.group_by:
            if isinstance(key, ColumnRef):
                note(key.table, key.column)
        for item in stmt.order_by:
            if isinstance(item.expr, ColumnRef):
                note(item.expr.table, item.expr.column)
        return orders

    def _combinations(self) -> list[tuple[tuple[str, str | None], ...]]:
        aliases = sorted(self._query.aliases)
        per_alias: list[list[str | None]] = []
        total = 1
        for alias in aliases:
            values: list[str | None] = [None] + self._orders[alias]
            per_alias.append(values)
            total *= len(values)
        combos = []
        for values in itertools.product(*per_alias):
            combos.append(tuple(zip(aliases, values)))
            if len(combos) >= self._max_combinations:
                break
        # Record degraded fidelity instead of capping silently: a
        # truncated order space means estimates over-approximate.
        self.stats.combinations_truncated = total - len(combos)
        return combos

    def _build_cache(self) -> None:
        for order_vector in self._combinations():
            prepared = self._prepared.with_relation_info(
                self._synthetic_info(order_vector)
            )
            for nestloop in (True, False):
                config = self._stripped.with_flags(enable_nestloop=nestloop)
                try:
                    plan, search = Planner(self._catalog, config).plan_search(
                        self._query, prepared
                    )
                except PlannerError:
                    # Whether a plan exists does not depend on the flag.
                    break
                self.stats.optimizer_calls += 1
                entry = _decompose(order_vector, nestloop, plan)
                # An off entry equal to its on twin prices nothing new.
                twin = self._entries[-1] if not nestloop else None
                if twin is None or (entry.internal_cost, entry.loops) != (
                    twin.internal_cost,
                    twin.loops,
                ):
                    self._entries.append(entry)
                if not (nestloop and search.keeps_nestloop()):
                    # No nested loop survived: the disabled pass would
                    # plan exactly this (JoinSearch.keeps_nestloop).
                    break
        self.stats.cache_entries = len(self._entries)

    def _synthetic_info(
        self, order_vector: tuple[tuple[str, str | None], ...]
    ) -> Callable[[BaseRel], RelationInfo]:
        """``with_relation_info``'s mapping for one combination: each
        relation offered the synthetic single-column indexes that deliver
        its order, and no other index."""
        synth: dict[str, list[Index]] = {}
        for alias, column in order_vector:
            if column is None:
                continue
            table_name = self._query.rel(alias).table.name
            synth.setdefault(table_name, []).append(
                Index(
                    name=f"inum_{table_name}_{column}",
                    table_name=table_name,
                    columns=(column,),
                    hypothetical=True,
                )
            )

        def synthetic_info(rel: BaseRel) -> RelationInfo:
            extra = [
                IndexInfo(
                    definition=index,
                    leaf_pages=self._index_pages(rel.info, index),
                    height=1,
                    index_tuples=rel.info.row_count,
                )
                for index in synth.get(rel.table_name, [])
            ]
            if not extra:
                return rel.info
            info = rel.info
            return RelationInfo(
                table=info.table,
                row_count=info.row_count,
                page_count=info.page_count,
                indexes=tuple(extra),
                column_stats=info.column_stats,
            )

        return synthetic_info

    # ------------------------------------------------------------------
    # Access costs

    def _access_info(self, alias: str, index: Index) -> _AccessInfo:
        key = (alias, index.columns)
        cached = self._access_cache.get(key)
        if cached is not None:
            return cached

        cache = self._cost_cache
        if not index_usable(self._prepared.base_rels[alias], index.columns):
            # No plain index path: the cell stays at the inf it starts
            # with, so neither sizing nor the shared cache is consulted.
            result = _UNUSABLE
        elif cache is not None:
            shared_key = (self._rel_keys[alias], index_signature(index))
            result = cache.access_info(
                shared_key,
                lambda: self._compute_access_info(alias, index),
                catalog_key=self._catalog.cache_key,
            )
        else:
            result = self._compute_access_info(alias, index)
        self._access_cache[key] = result
        return result

    def _compute_access_info(self, alias: str, index: Index) -> _AccessInfo:
        rel: BaseRel = self._prepared.base_rels[alias]
        info = rel.info
        leaf_pages = self._index_pages(info, index)
        index_info = IndexInfo(
            definition=index,
            leaf_pages=leaf_pages,
            height=1,
            index_tuples=info.row_count,
        )
        shadow = RelationInfo(
            table=info.table,
            row_count=info.row_count,
            page_count=info.page_count,
            indexes=(index_info,),
            column_stats=info.column_stats,
        )
        shadow_rel = BaseRel(
            alias=rel.alias,
            info=shadow,
            restrictions=rel.restrictions,
            required_columns=rel.required_columns,
            rows=rel.rows,
            width=rel.width,
        )
        [path] = index_paths(self._config, shadow_rel)  # usable: one path
        provides = self._orders_provided(rel, index_info)
        return _AccessInfo(cost=path.total_cost, provides=provides)

    def _orders_provided(self, rel: BaseRel, index: IndexInfo) -> frozenset[str]:
        """Order columns this index can deliver for this query: a column
        is provided when every key column before it is pinned by an
        equality restriction."""
        eq_columns = {
            c.index_clause.column
            for c in rel.restrictions
            if c.index_clause is not None and c.index_clause.is_equality
        }
        provided = set()
        for column in index.columns:
            provided.add(column)
            if column not in eq_columns:
                # Not pinned by an equality: deeper key columns are only
                # sorted within runs, not globally.
                break
        return frozenset(provided)

    # ------------------------------------------------------------------
    # Estimation

    def estimate(self, config_indexes: Sequence[Index] = ()) -> float:
        """INUM cost of the query under ``config_indexes`` (no optimizer
        call): ``estimate_batch([config_indexes])[0]``."""
        return float(self.estimate_batch([config_indexes])[0])

    def estimate_batch(
        self, configs: Sequence[Sequence[Index]]
    ) -> np.ndarray:
        """INUM costs of many configurations as one array evaluation.

        Compiles this model's cache entries and the distinct indexes
        across ``configs`` into the flat array layout of
        :class:`~repro.inum.batch.WorkloadEvaluator` and evaluates every
        configuration as a gather + multiply-accumulate + segmented
        min. Indexes on tables the query never references cannot
        change an element.
        """
        from repro.inum.batch import WorkloadEvaluator

        pool: list[Index] = []
        seen: dict[tuple, int] = {}
        position_sets: list[list[int]] = []
        for config in configs:
            positions = []
            for index in config:
                sig = index_signature(index)
                slot = seen.get(sig)
                if slot is None:
                    slot = seen[sig] = len(pool)
                    pool.append(index)
                positions.append(slot)
            position_sets.append(positions)
        self.stats.estimates_served += len(position_sets)
        evaluator = WorkloadEvaluator([self], [1.0], pool)
        return evaluator.per_query_costs(position_sets)[0]

    def optimizer_cost(self, config_indexes=()) -> float:
        """Ground truth: full optimizer call with the configuration
        simulated as what-if indexes (used to validate INUM's accuracy)."""
        stripped = self._strip_indexes(self._config)
        base_hook = stripped.relation_info_hook
        by_table: dict[str, list[Index]] = {}
        for index in config_indexes:
            by_table.setdefault(index.table_name, []).append(index)

        def hook(cfg: PlannerConfig, catalog: Catalog, table_name: str) -> RelationInfo:
            info = base_hook(cfg, catalog, table_name)
            extra = []
            for index in by_table.get(table_name, []):
                leaf_pages = estimate_index_pages(
                    info.table, index, info.row_count, info.column_stats
                )
                extra.append(
                    IndexInfo(
                        definition=index,
                        leaf_pages=leaf_pages,
                        height=1,
                        index_tuples=info.row_count,
                    )
                )
            return RelationInfo(
                table=info.table,
                row_count=info.row_count,
                page_count=info.page_count,
                indexes=tuple(extra),
                column_stats=info.column_stats,
            )

        config = stripped.with_hook(hook)
        plan = Planner(self._catalog, config).plan(self._query)
        return plan.total_cost

    @property
    def entries(self) -> list[CacheEntry]:
        return list(self._entries)

    @property
    def query(self) -> BoundQuery:
        return self._query

    @property
    def base_cost(self) -> float:
        """Cost with no indexes at all."""
        return self.estimate(())


def _decompose(
    order_vector: tuple[tuple[str, str | None], ...], nestloop: bool, plan: Plan
) -> CacheEntry:
    """``plan`` as a cache entry: its internal cost and per-alias loop
    counts.

    The inner side of a nested loop executes once per outer row; loop
    multipliers compound down the tree.
    """
    scans: dict[str, tuple[float, float]] = {}

    def walk(node: Plan, multiplier: float) -> None:
        if isinstance(node, Scan):
            scans[node.alias] = (node.total_cost, multiplier)
            return
        if isinstance(node, NestLoop):
            walk(node.outer, multiplier)
            walk(node.inner, multiplier * clamp_rows(node.outer.rows))
            return
        for child in node.children():
            walk(child, multiplier)

    walk(plan, 1.0)
    internal = plan.total_cost
    for cost, loop in scans.values():
        internal -= cost * loop
    return CacheEntry(
        order_vector=order_vector,
        nestloop_enabled=nestloop,
        internal_cost=internal,
        loops=tuple(sorted((a, l) for a, (_c, l) in scans.items())),
        plan=plan,
    )
