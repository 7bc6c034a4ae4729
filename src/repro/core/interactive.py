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
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index, PartitionScheme
from repro.errors import WhatIfError
from repro.optimizer.config import PlannerConfig
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
from repro.whatif.session import JOIN_FLAGS, WhatIfSession
from repro.workloads.workload import Workload

#: The join flags of a new session, which :meth:`InteractiveDesigner.reset`
#: restores.
_DEFAULT_FLAGS = {flag: getattr(PlannerConfig(), flag) for flag in JOIN_FLAGS}


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
        # Both caches are keyed by the SQL (the next workload may reuse
        # a name for another statement). Baselines (the query bound
        # against the real catalog, and its plan there) depend only on
        # the real catalog, so they are also keyed by its version and
        # outlive reset(). A target binding (the query bound against
        # the session catalog, rewritten onto the fragments when it
        # reads a partitioned table) is kept with its rewritten text
        # (None when nothing was rewritten) and the tables the query
        # reads, until a table it reads gets a scheme or the session
        # catalog no longer holds a table it points at (reset() drops
        # the fragments). The session's plan cache does the
        # rest — evaluate() after add_whatif_index replans only the
        # queries the new index can serve. Parsed statements are frozen
        # ASTs, so one parse per SQL serves every catalog version.
        self._baselines: dict[tuple, _Baseline] = {}
        self._bound_targets: dict[
            str, tuple[BoundQuery, str | None, frozenset[str]]
        ] = {}
        self._targets_under = self._session.catalog.cache_key
        self._statements: dict[str, SelectStmt] = {}

    @property
    def session(self) -> WhatIfSession:
        return self._session

    def reset(self) -> None:
        """Drop every what-if feature created so far.

        The session is reset in place: its fragment tables are dropped,
        its hypothetical indexes cleared and its join flags restored, so
        the plans of the queries none of that touched stay cached, and
        its counters (``plan_cache_hits``, ``simulation_seconds``) keep
        counting. A new session replaces it only when its catalog then
        differs from the database's, because the database changed or
        the session catalog was changed other than through this
        designer.
        """
        session = self._session
        catalog = session.catalog
        for scheme in self._schemes.values():
            for position in range(len(scheme.fragments)):
                name = scheme.fragment_name(position)
                if catalog.has_table(name):
                    session.drop_table(name)
        self._schemes = {}
        # Target bindings onto the dropped fragments go at the next
        # evaluate() (see ``_targets_under``); the others stay.
        if _same_objects(catalog, self._db.catalog):
            session.clear_indexes()
            session.set_join_flags(**_DEFAULT_FLAGS)
        else:
            self._session = WhatIfSession(self._db.catalog)

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
        # Queries that read ``table`` are rewritten onto its fragments.
        self._bound_targets = {
            sql: entry
            for sql, entry in self._bound_targets.items()
            if table not in entry[2]
        }
        return scheme

    # ------------------------------------------------------------------
    # Evaluation

    def evaluate(self, workload: Workload) -> DesignEvaluation:
        """Benefit of the current what-if design over the original."""
        baseline = Planner(self._db.catalog)
        session = self._session
        schemes = self._schemes
        rewriter = PartitionRewriter(schemes) if schemes else None
        base_version = self._db.catalog.cache_key
        target_version = session.catalog.cache_key
        if target_version != self._targets_under:
            self._targets_under = target_version
            self._bound_targets = {
                sql: entry
                for sql, entry in self._bound_targets.items()
                if _still_bound(session.catalog, entry[0])
            }
        per_query: list[QueryBenefit] = []
        rewritten_sql: dict[str, str] = {}
        cost_before = 0.0
        cost_after = 0.0
        for query in workload:
            base_key = (base_version, query.sql)
            base = self._baselines.get(base_key)
            if base is None:
                bound = query.bind(self._db.catalog)
                base = self._baselines[base_key] = _Baseline(bound, baseline.plan(bound))
            before = base.plan.total_cost * query.weight
            entry = self._bound_targets.get(query.sql)
            if entry is None:
                if rewriter is not None and not schemes.keys().isdisjoint(base.tables):
                    statement = rewriter.rewrite(base.bound)
                    target = bind(session.catalog, statement)
                    text = to_sql(statement)
                elif _still_bound(session.catalog, base.bound):
                    # The session catalog shares the real catalog's
                    # table objects, so the baseline binding serves.
                    target, text = base.bound, None
                else:
                    target = bind(session.catalog, self._statement(query.sql))
                    text = None
                entry = self._bound_targets[query.sql] = (target, text, base.tables)
            target, text, _tables = entry
            if text is None:
                # Nothing to rewrite: show the statement as the rewriter
                # prints it once there are schemes.
                text = base.printed() if schemes else query.sql.strip()
            rewritten_sql[query.name] = text
            plan, used = session.plan_with_indexes(target)
            after = plan.total_cost * query.weight
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


class _Baseline:
    """A query bound against the real catalog, its plan there, and the
    tables it reads."""

    __slots__ = ("bound", "plan", "tables", "_printed")

    def __init__(self, bound: BoundQuery, plan: Plan) -> None:
        self.bound = bound
        self.plan = plan
        self.tables = frozenset(entry.table.name for entry in bound.rels)
        self._printed: str | None = None

    def printed(self) -> str:
        """The statement as the partition rewriter prints a query that
        reads no partitioned table: a function of the binding alone."""
        if self._printed is None:
            self._printed = to_sql(PartitionRewriter({}).rewrite(self.bound))
        return self._printed


def _still_bound(catalog: Catalog, query: BoundQuery) -> bool:
    """Whether ``catalog`` still holds every table ``query`` was bound to."""
    return all(
        catalog.has_table(entry.table.name)
        and catalog.table(entry.table.name) is entry.table
        for entry in query.rels
    )


def _same_objects(catalog: Catalog, base: Catalog) -> bool:
    """Whether ``catalog`` holds exactly ``base``'s table, index and
    statistics objects, as a fresh clone of ``base`` does."""
    if catalog.table_names != base.table_names:
        return False
    if catalog.index_names != base.index_names:
        return False
    for name in base.table_names:
        if catalog.table(name) is not base.table(name):
            return False
        if catalog.has_statistics(name) != base.has_statistics(name):
            return False
        if base.has_statistics(name) and (
            catalog.statistics(name) is not base.statistics(name)
        ):
            return False
    return all(catalog.index(name) is base.index(name) for name in base.index_names)


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
