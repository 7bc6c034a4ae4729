"""Planner entry point: bound query → physical plan.

Pipeline: classify WHERE conjuncts → fetch relation info through the
(hookable) ``relation_info_hook`` → generate base access paths →
System-R join DP → grouping/aggregation → DISTINCT → ORDER BY sort →
LIMIT. Everything downstream of the hook sees only statistics, which is
what makes what-if simulation transparent to the planner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.catalog.catalog import Catalog
from repro.optimizer.clauses import ClassifiedClause, classify_all
from repro.optimizer.config import PlannerConfig, RelationInfo
from repro.optimizer.cost import (
    clamp_rows,
    cost_agg_hash,
    cost_agg_sorted,
    cost_plain_agg,
    cost_sort,
)
from repro.optimizer.joinsearch import JoinSearch
from repro.optimizer.paths import (
    BaseRel,
    build_base_rel,
    index_paths,
    parameterized_index_paths,
    seqscan_path,
)
from repro.optimizer.selectivity import estimate_distinct
from repro.optimizer.plans import (
    Aggregate,
    Limit,
    Plan,
    Project,
    Sort,
)
from repro.sql.ast_nodes import ColumnRef, Expr, FuncCall, SortItem
from repro.sql.binder import BoundQuery


@dataclass
class PreparedQuery:
    """Per-query planner state shared between plan() and INUM."""

    base_rels: dict[str, BaseRel]
    restrictions: dict[str, list[ClassifiedClause]]
    join_clauses: list[ClassifiedClause]

    def with_relation_info(
        self, info_for: Callable[[BaseRel], RelationInfo]
    ) -> "PreparedQuery":
        """This state with each relation's physical design swapped.

        Classification, restriction selectivities, rows and width depend
        on the table and its statistics, not on the available indexes or
        the enable_* flags, so a caller re-planning one query under
        another design (INUM's synthetic index lists, a what-if session's
        hypothetical indexes) replaces only ``BaseRel.info`` — which must
        describe the same table and statistics.
        """
        base_rels = {}
        for alias, rel in self.base_rels.items():
            info = info_for(rel)
            base_rels[alias] = rel if info is rel.info else replace(rel, info=info)
        return PreparedQuery(
            base_rels=base_rels,
            restrictions=self.restrictions,
            join_clauses=self.join_clauses,
        )


class Planner:
    """Cost-based planner over one catalog."""

    def __init__(self, catalog: Catalog, config: PlannerConfig | None = None) -> None:
        self._catalog = catalog
        self._config = config or PlannerConfig()

    @property
    def config(self) -> PlannerConfig:
        return self._config

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    def relation_info(self, table_name: str) -> RelationInfo:
        """The physical design of ``table_name`` as this planner's
        configuration reports it (real catalog, or a what-if hook)."""
        config = self._config
        return config.relation_info_hook(config, self._catalog, table_name)

    def prepare(self, query: BoundQuery) -> "PreparedQuery":
        """Classify quals and build per-relation planner state.

        Exposed separately because INUM reuses exactly this state to
        compute per-relation access costs without re-planning.
        """
        config = self._config
        classified = classify_all(query.quals)
        restrictions: dict[str, list[ClassifiedClause]] = {
            alias: [] for alias in query.aliases
        }
        join_clauses: list[ClassifiedClause] = []
        for clause in classified:
            alias = clause.single_alias
            if alias is not None:
                restrictions[alias].append(clause)
            elif not clause.rels:
                # Constant clause: applies everywhere; attach to first rel.
                restrictions[query.aliases[0]].append(clause)
            else:
                join_clauses.append(clause)

        base_rels: dict[str, BaseRel] = {}
        for entry in query.rels:
            base_rels[entry.alias] = build_base_rel(
                config,
                entry.alias,
                self.relation_info(entry.table.name),
                restrictions[entry.alias],
                query.required_columns[entry.alias],
            )
        return PreparedQuery(
            base_rels=base_rels,
            restrictions=restrictions,
            join_clauses=join_clauses,
        )

    def plan(self, query: BoundQuery, prepared: PreparedQuery | None = None) -> Plan:
        """Plan ``query``; ``prepared`` is its state from an earlier
        :meth:`prepare`, re-pointed at this planner's design with
        :meth:`PreparedQuery.with_relation_info`."""
        if prepared is None:
            prepared = self.prepare(query)
        return self.plan_prepared(query, prepared)

    def plan_prepared(self, query: BoundQuery, prepared: PreparedQuery) -> Plan:
        """Plan ``query`` from an existing :class:`PreparedQuery`.

        A what-if session reuses one prepared state across the replans
        of one query, swapping only ``BaseRel.info``.
        """
        return self.plan_search(query, prepared)[0]

    def plan_search(
        self, query: BoundQuery, prepared: PreparedQuery
    ) -> tuple[Plan, JoinSearch]:
        """:meth:`plan_prepared`, also returning the finished join search.

        INUM plans every interesting-order combination this way and asks
        the search whether a nested loop survived
        (:meth:`JoinSearch.keeps_nestloop`) before it plans the
        combination again with nested loops disabled. Nothing above the
        join search reads ``enable_nestloop``, so the same search means
        the same plan.
        """
        config = self._config
        base_rels = prepared.base_rels
        join_clauses = prepared.join_clauses

        base_plans: dict[str, list[Plan]] = {}
        param_plans = {}
        for alias, rel in base_rels.items():
            plans: list[Plan] = [seqscan_path(config, rel)]
            plans.extend(index_paths(config, rel))
            base_plans[alias] = plans
            if config.enable_parameterized_paths:
                param_plans[alias] = parameterized_index_paths(
                    config, rel, join_clauses
                )
            else:
                param_plans[alias] = []

        search = JoinSearch(config, base_rels, base_plans, param_plans, join_clauses)
        relset = search.run()

        # Try every surviving candidate (cheapest + per-order bests): an
        # ordered plan may win once sort-free aggregation/ORDER BY is
        # accounted for.
        best: Plan | None = None
        for candidate in relset.candidates():
            finished = self._add_upper_plan(query, base_rels, candidate)
            if best is None or finished.total_cost < best.total_cost:
                best = finished
        assert best is not None  # relset always has a cheapest plan
        return best, search

    # ------------------------------------------------------------------

    def _add_upper_plan(
        self, query: BoundQuery, base_rels: dict[str, BaseRel], plan: Plan
    ) -> Plan:
        config = self._config
        stmt = query.statement
        num_aggs = _count_aggregates(stmt.targets)
        has_group = bool(stmt.group_by)

        if has_group or num_aggs:
            if has_group:
                groups = self._estimate_groups(stmt.group_by, base_rels, plan.rows)
                hash_costs = cost_agg_hash(
                    config,
                    plan.startup_cost,
                    plan.total_cost,
                    plan.rows,
                    num_group_cols=len(stmt.group_by),
                    num_aggs=num_aggs,
                    output_groups=groups,
                )
                presorted = _order_covers_group(plan.out_order, stmt.group_by)
                if presorted:
                    # Input already grouped: sorted aggregation, no sort.
                    sort_startup, sort_total = plan.startup_cost, plan.total_cost
                else:
                    sort_startup, sort_total = cost_sort(
                        config,
                        plan.startup_cost,
                        plan.total_cost,
                        plan.rows,
                        plan.width,
                    )
                sorted_costs = cost_agg_sorted(
                    config,
                    sort_startup,
                    sort_total,
                    plan.rows,
                    num_group_cols=len(stmt.group_by),
                    num_aggs=num_aggs,
                    output_groups=groups,
                )
                if hash_costs[1] <= sorted_costs[1]:
                    strategy, costs = "hash", hash_costs
                else:
                    strategy, costs = "sorted", sorted_costs
                    if not presorted:
                        plan = Sort(
                            startup_cost=sort_startup,
                            total_cost=sort_total,
                            rows=plan.rows,
                            width=plan.width,
                            out_order=_group_order(stmt.group_by),
                            child=plan,
                            sort_keys=tuple(
                                SortItem(expr=k) for k in stmt.group_by
                            ),
                        )
            else:
                groups = 1.0
                strategy = "plain"
                costs = cost_plain_agg(
                    config, plan.startup_cost, plan.total_cost, plan.rows, num_aggs
                )
            agg_order = (
                plan.out_order if strategy == "sorted" and has_group else ()
            )
            plan = Aggregate(
                startup_cost=costs[0],
                total_cost=costs[1],
                rows=clamp_rows(groups),
                width=_output_width(stmt.targets),
                out_order=agg_order,
                child=plan,
                strategy=strategy,
                group_keys=stmt.group_by,
                output=stmt.targets,
                having=stmt.having,
            )
        else:
            project_total = plan.total_cost + plan.rows * config.cpu_tuple_cost * 0.1
            plan = Project(
                startup_cost=plan.startup_cost,
                total_cost=project_total,
                rows=plan.rows,
                width=_output_width(stmt.targets),
                out_order=plan.out_order,
                child=plan,
                output=stmt.targets,
                distinct=stmt.distinct,
            )
            if stmt.distinct:
                startup, total = cost_agg_hash(
                    config,
                    plan.startup_cost,
                    plan.total_cost,
                    plan.rows,
                    num_group_cols=len(stmt.targets),
                    num_aggs=0,
                    output_groups=plan.rows * 0.5,
                )
                plan = plan.with_costs(startup, total)

        if stmt.order_by and not _order_satisfies_sort(plan.out_order, stmt.order_by):
            startup, total = cost_sort(
                self._config, plan.startup_cost, plan.total_cost, plan.rows, plan.width
            )
            plan = Sort(
                startup_cost=startup,
                total_cost=total,
                rows=plan.rows,
                width=plan.width,
                child=plan,
                sort_keys=stmt.order_by,
            )

        if stmt.limit is not None:
            fraction = min(1.0, stmt.limit / clamp_rows(plan.rows))
            run_cost = plan.total_cost - plan.startup_cost
            total = plan.startup_cost + run_cost * fraction
            plan = Limit(
                startup_cost=plan.startup_cost,
                total_cost=total,
                rows=min(plan.rows, float(stmt.limit)),
                width=plan.width,
                out_order=plan.out_order,
                child=plan,
                count=stmt.limit,
            )
        return plan

    def _estimate_groups(
        self,
        group_by: tuple[Expr, ...],
        base_rels: dict[str, BaseRel],
        input_rows: float,
    ) -> float:
        product = 1.0
        for key in group_by:
            if isinstance(key, ColumnRef) and key.table in base_rels:
                rel = base_rels[key.table]
                product *= estimate_distinct(rel.info, key.column, rows=rel.rows)
            else:
                product *= 10.0  # expression key: PG-style guess
        return max(1.0, min(product, input_rows))


def _group_order(group_by: tuple[Expr, ...]) -> tuple[tuple[str, str], ...]:
    """The (alias, column) order a sort on the group keys delivers."""
    order = []
    for key in group_by:
        if isinstance(key, ColumnRef) and key.table is not None:
            order.append((key.table, key.column))
        else:
            return ()  # expression keys: no reusable column order
    return tuple(order)


def _order_covers_group(
    out_order: tuple[tuple[str, str], ...], group_by: tuple[Expr, ...]
) -> bool:
    """True when input sorted by ``out_order`` is grouped on the keys.

    Grouping only needs the group columns to be *some* permutation of a
    prefix of the delivered order.
    """
    group_cols = set()
    for key in group_by:
        if not (isinstance(key, ColumnRef) and key.table is not None):
            return False
        group_cols.add((key.table, key.column))
    if len(out_order) < len(group_cols):
        return False
    return set(out_order[: len(group_cols)]) == group_cols


def _order_satisfies_sort(
    out_order: tuple[tuple[str, str], ...], sort_keys: tuple
) -> bool:
    """True when the plan's order already satisfies ORDER BY (all keys
    ascending column references forming a prefix of the delivered order)."""
    required = []
    for item in sort_keys:
        if item.descending:
            return False
        if not (isinstance(item.expr, ColumnRef) and item.expr.table is not None):
            return False
        required.append((item.expr.table, item.expr.column))
    return (
        len(required) <= len(out_order)
        and tuple(required) == out_order[: len(required)]
    )


def _count_aggregates(targets: tuple) -> int:
    count = 0
    for item in targets:
        count += sum(
            1
            for node in item.expr.walk()
            if isinstance(node, FuncCall) and node.is_aggregate
        )
    return count


def _output_width(targets: tuple) -> int:
    # Rough: 8 bytes per output column; exact width is immaterial above
    # the join tree for the experiments reproduced here.
    return max(8, 8 * len(targets))


def plan_query(
    catalog: Catalog, query: BoundQuery, config: PlannerConfig | None = None
) -> Plan:
    """One-shot convenience: plan ``query`` against ``catalog``."""
    return Planner(catalog, config).plan(query)
