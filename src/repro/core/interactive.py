"""The interactive partitioning/indexing component (demo scenario 1).

"The user inputs the query workload file and the original physical
design. Then, she creates several what-if table partitions and several
what-if indexes ... The workload is evaluated for the new physical
design. The average workload benefit and the individual queries'
benefits are displayed." This module is that component, minus the GUI:
a programmatic API producing the same numbers plus the plan-comparison
check that validates simulation accuracy against materialized designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.advisor.ilp_advisor import QueryBenefit
from repro.catalog.schema import Index, PartitionScheme
from repro.errors import WhatIfError
from repro.optimizer.explain import explain
from repro.optimizer.planner import Planner
from repro.optimizer.plans import Plan, plan_signature
from repro.partitioning.fragments import fragment_with_pk
from repro.partitioning.rewrite import PartitionRewriter
from repro.sql.ast_nodes import SelectStmt
from repro.sql.binder import BoundQuery, bind
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql
from repro.storage.database import Database
from repro.whatif.session import WhatIfSession
from repro.workloads.workload import Workload


@dataclass
class DesignEvaluation:
    """What the interactive GUI displays for one evaluated design."""

    cost_before: float
    cost_after: float
    per_query: list[QueryBenefit]
    rewritten_sql: dict[str, str] = field(default_factory=dict)

    @property
    def average_benefit(self) -> float:
        """Average per-query relative benefit (the GUI's headline number)."""
        if not self.per_query:
            return 0.0
        total = 0.0
        for entry in self.per_query:
            if entry.cost_before > 0:
                total += (entry.cost_before - entry.cost_after) / entry.cost_before
        return total / len(self.per_query)

    @property
    def speedup(self) -> float:
        if self.cost_after <= 0:
            return float("inf")
        return self.cost_before / self.cost_after


@dataclass
class PlanComparison:
    """Simulated vs. materialized plan for one query (accuracy check)."""

    query_name: str
    whatif_cost: float
    materialized_cost: float
    plans_match: bool
    whatif_plan: str
    materialized_plan: str

    @property
    def cost_error(self) -> float:
        if self.materialized_cost == 0:
            return 0.0
        return abs(self.whatif_cost - self.materialized_cost) / self.materialized_cost


class InteractiveDesigner:
    """Manual what-if exploration over a database."""

    def __init__(self, database: Database) -> None:
        self._db = database
        self._session = WhatIfSession(database.catalog)
        self._schemes: dict[str, PartitionScheme] = {}
        # Baselines (the query bound against the real catalog, and its
        # plan there) depend only on the real catalog, so they outlive
        # reset(); target-side bindings depend on the session catalog.
        # Both are keyed by the SQL (the next workload may reuse a name
        # for another statement); baselines also by the real catalog's
        # version, and target bindings are dropped once the session
        # catalog's key (a new one after reset()) moves past
        # ``_targets_under``, as the session's own caches are. The
        # session's plan cache does the rest — evaluate() after
        # add_whatif_index replans only the queries the new index can
        # serve. Parsed statements are frozen ASTs, so one parse per SQL
        # serves every catalog version.
        self._baselines: dict[tuple, tuple[BoundQuery, Plan]] = {}
        self._bound_targets: dict[str, tuple[BoundQuery, str]] = {}
        self._targets_under = self._session.catalog.cache_key
        self._statements: dict[str, SelectStmt] = {}

    @property
    def session(self) -> WhatIfSession:
        return self._session

    def reset(self) -> None:
        """Drop every what-if feature created so far."""
        self._session = WhatIfSession(self._db.catalog)
        self._schemes = {}

    def _statement(self, sql: str) -> SelectStmt:
        statement = self._statements.get(sql)
        if statement is None:
            statement = self._statements[sql] = parse_select(sql)
        return statement

    # ------------------------------------------------------------------
    # Design features

    def add_whatif_index(
        self, table: str, columns: tuple[str, ...] | list[str], name: str | None = None
    ) -> Index:
        return self._session.add_index(table, columns, name=name)

    def add_whatif_partitions(
        self, table: str, fragments: list[tuple[str, ...]]
    ) -> PartitionScheme:
        """Simulate a full vertical partitioning of ``table``.

        ``fragments`` lists logical column groups; primary-key columns
        are added to each fragment automatically. Every table column
        must appear in some fragment.
        """
        if table in self._schemes:
            raise WhatIfError(f"table {table!r} already has what-if partitions")
        table_obj = self._db.catalog.table(table)
        covered = set(table_obj.primary_key)
        for fragment in fragments:
            covered |= set(fragment)
        missing = set(table_obj.column_names) - covered
        if missing:
            raise WhatIfError(
                f"partitioning of {table!r} leaves columns uncovered: "
                f"{sorted(missing)}"
            )
        physical = tuple(
            fragment_with_pk(table_obj, tuple(f)) for f in fragments
        )
        scheme = PartitionScheme(table_name=table, fragments=physical)
        for position in range(len(physical)):
            self._session.add_partition_table(
                table, physical[position], scheme.fragment_name(position)
            )
        self._schemes[table] = scheme
        return scheme

    # ------------------------------------------------------------------
    # Evaluation

    def evaluate(self, workload: Workload) -> DesignEvaluation:
        """Benefit of the current what-if design over the original."""
        baseline = Planner(self._db.catalog)
        rewriter = PartitionRewriter(self._schemes) if self._schemes else None

        # Partition-scheme changes add shell tables to the session
        # catalog (version bump), so its key covers them.
        base_version = self._db.catalog.cache_key
        target_version = self._session.catalog.cache_key
        if target_version != self._targets_under:
            self._targets_under = target_version
            self._bound_targets.clear()
        per_query: list[QueryBenefit] = []
        rewritten_sql: dict[str, str] = {}
        cost_before = 0.0
        cost_after = 0.0
        for query in workload:
            base_key = (base_version, query.sql)
            base = self._baselines.get(base_key)
            if base is None:
                bound = query.bind(self._db.catalog)
                base = self._baselines[base_key] = (bound, baseline.plan(bound))
            bound, base_plan = base
            before = base_plan.total_cost * query.weight
            entry = self._bound_targets.get(query.sql)
            if entry is None:
                if rewriter is not None:
                    rewritten = rewriter.rewrite(bound)
                    sql = to_sql(rewritten)
                    target = bind(self._session.catalog, rewritten)
                else:
                    sql = query.sql.strip()
                    target = bind(self._session.catalog, self._statement(query.sql))
                entry = (target, sql)
                self._bound_targets[query.sql] = entry
            target, rewritten_sql[query.name] = entry
            plan = self._session.plan(target)
            after = plan.total_cost * query.weight
            used = self._session.hypothetical_indexes_used(target)
            cost_before += before
            cost_after += after
            per_query.append(
                QueryBenefit(
                    name=query.name,
                    cost_before=before,
                    cost_after=after,
                    indexes_used=used,
                )
            )
        return DesignEvaluation(
            cost_before=cost_before,
            cost_after=cost_after,
            per_query=per_query,
            rewritten_sql=rewritten_sql,
        )

    def compare_with_materialized(self, query_name: str, workload: Workload) -> PlanComparison:
        """Materialize the current what-if indexes for real and compare
        plans — the demo's "verify the accuracy of the physical design
        simulation" option.

        Builds real B-Trees (and fragment tables) in a scratch copy of
        the database, plans the query there, and checks the plan shape
        and cost against the what-if plan.
        """
        query = workload.query(query_name)
        scratch = _materialize(self._db, self._session, self._schemes)

        statement = self._statement(query.sql)

        # What-if side.
        bound_whatif = bind(self._session.catalog, statement)
        whatif_plan = self._session.planner().plan(bound_whatif)

        # Materialized side.
        bound_real = bind(scratch.catalog, statement)
        real_plan = Planner(scratch.catalog).plan(bound_real)

        return PlanComparison(
            query_name=query_name,
            whatif_cost=whatif_plan.total_cost,
            materialized_cost=real_plan.total_cost,
            # plan_signature leaves index names out, and what-if names
            # differ from the materialized ones.
            plans_match=plan_signature(whatif_plan) == plan_signature(real_plan),
            whatif_plan=explain(whatif_plan),
            materialized_plan=explain(real_plan),
        )


def _materialize(
    db: Database, session: WhatIfSession, schemes: dict[str, PartitionScheme]
) -> Database:
    """A scratch database with the session's design built for real."""
    scratch = Database()
    for table_name in db.table_names:
        relation = db.relation(table_name)
        scratch.create_table(relation.table, relation.heap.columns_dict())
    for index in db.catalog.indexes():
        if not index.hypothetical and scratch.has_relation(index.table_name):
            scratch.create_index(index)
    for position, index in enumerate(session.hypothetical_indexes):
        scratch.create_index(index.as_real(name=f"mat_{position}_{index.name}"))
    for scheme in schemes.values():
        scratch.materialize_partitions(scheme)
    return scratch
