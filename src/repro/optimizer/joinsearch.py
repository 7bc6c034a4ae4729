"""System-R dynamic-programming join enumeration.

Enumerates join orders level-by-level, considering nested-loop
(including parameterized inner index scans), hash, and merge joins. The
workloads here join a handful of relations, so exhaustive DP is cheap —
this is the "no greedy pruning" spirit of the paper applied to join
search.

When the join clauses connect every relation, the DP builds connected
subsets only, each from splits into two connected halves that a clause
joins (PostgreSQL's ``join_search_one_level``): every connected set has
such a split, so no plan free of cartesian products is lost. A
disconnected join graph instead retries, at every level, each subset no
connected split produced, allowing cartesian products.

Each join is priced before it is built: a plan node (and the ``Sort``
under a merge join's input) is created only when :meth:`RelSet.keeps`
says :meth:`RelSet.consider` would keep it.

Disabling nested loops only adds ``disable_cost`` to each nested loop's
total, so a search with them enabled whose sets end holding no
``NestLoop`` (:meth:`JoinSearch.keeps_nestloop` is false) is exactly the
search with them disabled: see that method for the proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.optimizer.clauses import ClassifiedClause
from repro.optimizer.config import PlannerConfig
from repro.optimizer.cost import (
    clamp_rows,
    cost_hashjoin,
    cost_mergejoin,
    cost_nestloop,
    cost_sort,
)
from repro.optimizer.paths import BaseRel
from repro.optimizer.selectivity import (
    equijoin_selectivity,
    generic_join_selectivity,
)
from repro.optimizer.plans import (
    HashJoin,
    IndexScan,
    MergeJoin,
    NestLoop,
    Plan,
    Sort,
)
from repro.sql.ast_nodes import ColumnRef, SortItem
from repro.errors import PlannerError


def order_satisfies(out_order: tuple, required: tuple) -> bool:
    """True when a plan ordered by ``out_order`` is sorted by ``required``
    (the requirement must be a prefix of the delivered order)."""
    return len(required) <= len(out_order) and out_order[: len(required)] == required


@dataclass
class RelSet:
    """DP table entry: best plans for one subset of relations.

    Keeps the cheapest plan overall plus the cheapest plan per distinct
    output order — classic interesting-order bookkeeping, so an ordered
    (slightly costlier) plan survives to enable sort-free merge joins,
    sorted aggregation, or a sort-free ORDER BY higher up.

    :meth:`keeps` answers from a cost and an order alone whether
    :meth:`consider` would keep a plan, so the join search builds only
    the plans that survive; ties keep the plan considered first.
    """

    aliases: frozenset[str]
    rows: float
    width: int
    cheapest: Plan | None = None
    by_order: dict[tuple, Plan] = field(default_factory=dict)
    # Parameterized plans (base rels only): plans requiring outer rels.
    parameterized: list[IndexScan] = field(default_factory=list)

    def keeps(self, total_cost: float, out_order: tuple) -> bool:
        """Would :meth:`consider` keep a plan of this cost and order?"""
        if self.cheapest is None or total_cost < self.cheapest.total_cost:
            return True
        if not out_order:
            return False
        existing = self.by_order.get(out_order)
        return existing is None or total_cost < existing.total_cost

    def consider(self, plan: Plan) -> None:
        if self.cheapest is None or plan.total_cost < self.cheapest.total_cost:
            self.cheapest = plan
        if plan.out_order:
            key = plan.out_order
            existing = self.by_order.get(key)
            if existing is None or plan.total_cost < existing.total_cost:
                self.by_order[key] = plan

    def candidates(self) -> list[Plan]:
        """Distinct plans worth joining from (cheapest + per-order bests)."""
        plans: list[Plan] = []
        if self.cheapest is not None:
            plans.append(self.cheapest)
        for plan in self.by_order.values():
            if plan is not self.cheapest:
                plans.append(plan)
        return plans


class JoinSearch:
    """Runs the DP over one query's base relations."""

    def __init__(
        self,
        config: PlannerConfig,
        base_rels: dict[str, BaseRel],
        base_plans: dict[str, list[Plan]],
        param_plans: dict[str, list[IndexScan]],
        join_clauses: list[ClassifiedClause],
    ) -> None:
        self._config = config
        self._base_rels = base_rels
        self._join_clauses = join_clauses
        self._table: dict[frozenset[str], RelSet] = {}

        for alias, rel in base_rels.items():
            key = frozenset([alias])
            entry = RelSet(aliases=key, rows=rel.rows, width=rel.width)
            for plan in base_plans[alias]:
                entry.consider(plan)
            entry.parameterized = list(param_plans.get(alias, []))
            if entry.cheapest is None:
                raise PlannerError(f"no access path for relation {alias!r}")
            self._table[key] = entry
        # Alias -> aliases some join clause also references.
        self._neighbours: dict[str, set[str]] = {alias: set() for alias in base_rels}
        for clause in join_clauses:
            for alias in clause.rels:
                self._neighbours.setdefault(alias, set()).update(clause.rels - {alias})

    # ------------------------------------------------------------------

    def run(self) -> RelSet:
        """Run the DP; returns the final RelSet (cheapest + ordered plans)."""
        aliases = sorted(self._base_rels)
        n = len(aliases)
        if n == 1:
            return self._table[frozenset(aliases)]

        connected = self._is_connected(frozenset(aliases))
        for level in range(2, n + 1):
            for subset in itertools.combinations(aliases, level):
                subset_key = frozenset(subset)
                # A connected set always splits into two connected halves
                # that a clause joins, so in a connected graph the others
                # are never needed (PostgreSQL's join_search_one_level).
                if connected and not self._is_connected(subset_key):
                    continue
                self._build(subset_key, allow_cartesian=False)
            if connected:
                continue
            # A disconnected graph: retry every subset no connected split
            # produced, allowing cartesian products.
            for subset in itertools.combinations(aliases, level):
                subset_key = frozenset(subset)
                if subset_key not in self._table:
                    self._build(subset_key, allow_cartesian=True)

        final = self._table.get(frozenset(aliases))
        if final is None or final.cheapest is None:
            raise PlannerError("join search failed to produce a complete plan")
        return final

    def keeps_nestloop(self) -> bool:
        """True when some set of the finished search holds a ``NestLoop``,
        as its cheapest plan or as a per-order best.

        When false for a search run with nested loops enabled, the same
        search with them disabled ends with the very same plans. Every
        slot of a :class:`RelSet` ends holding the first minimum among
        the plans offered to it. By induction over the levels, the
        disabled search offers every set the same non-nested-loop plans
        in the same sequence, and the same nested loops at
        ``+ disable_cost`` (never cheaper in floating point). A slot
        whose first minimum is not a nested loop keeps it: a nested loop
        offered before it was strictly dearer, one offered after it no
        cheaper. A slot's order key enters ``by_order`` at the first
        plan offered in that order, whatever its cost, so the key order
        is the same too. Only INUM asks, so :meth:`run` pays nothing for
        it.
        """
        return any(
            isinstance(plan, NestLoop)
            for entry in self._table.values()
            for plan in entry.candidates()
        )

    def _build(self, key: frozenset[str], allow_cartesian: bool) -> None:
        """Enter ``key`` in the table when some split of it joins."""
        entry = None
        lefts: set[frozenset[str]] = set()
        for left_key, right_key in self._splits(key, allow_cartesian):
            if entry is None:
                entry = self._make_relset(key)
            self._consider_join(entry, left_key, right_key, right_key not in lefts)
            lefts.add(left_key)
        if entry is not None:
            self._table[key] = entry

    def _is_connected(self, key: frozenset[str]) -> bool:
        """True when the join clauses link every alias of ``key``."""
        start = min(key)
        reached = {start}
        frontier = [start]
        while frontier:
            alias = frontier.pop()
            for other in self._neighbours[alias]:
                if other in key and other not in reached:
                    reached.add(other)
                    frontier.append(other)
        return len(reached) == len(key)

    # ------------------------------------------------------------------

    def _make_relset(self, key: frozenset[str]) -> RelSet:
        rows = 1.0
        width = 0
        # FROM order, not set order: float products do not associate, and
        # a set of aliases iterates by string hash — the estimate must not
        # move with the hash seed or with how the relations are named.
        for alias, rel in self._base_rels.items():
            if alias in key:
                rows *= rel.rows
                width += rel.width
        for clause in self._join_clauses:
            if clause.rels <= key and len(clause.rels) > 1:
                rows *= self._join_clause_selectivity(clause)
        return RelSet(aliases=key, rows=clamp_rows(rows), width=width)

    def _join_clause_selectivity(self, clause: ClassifiedClause) -> float:
        if clause.equi_join is not None:
            (alias_a, col_a), (alias_b, col_b) = clause.equi_join
            return equijoin_selectivity(
                self._base_rels[alias_a].info,
                col_a,
                self._base_rels[alias_b].info,
                col_b,
            )
        return generic_join_selectivity(clause.expr)

    def _splits(self, key: frozenset[str], allow_cartesian: bool = False):
        """Yield (left, right) partitions of ``key`` present in the table."""
        members = sorted(key)
        for r in range(1, len(members)):
            for left in itertools.combinations(members, r):
                left_key = frozenset(left)
                right_key = key - left_key
                if left_key not in self._table or right_key not in self._table:
                    continue
                if not allow_cartesian and not self._connected(left_key, right_key):
                    continue
                yield left_key, right_key

    def _connected(self, left: frozenset[str], right: frozenset[str]) -> bool:
        for clause in self._join_clauses:
            if len(clause.rels) > 1 and clause.rels & left and clause.rels & right:
                return True
        return False

    # ------------------------------------------------------------------

    def _consider_join(
        self,
        entry: RelSet,
        left_key: frozenset[str],
        right_key: frozenset[str],
        first_way: bool,
    ) -> None:
        """Join ``left_key`` and ``right_key`` into ``entry``.

        Nested loops and hash joins are tried with either side outer, so
        the mirror split (``first_way`` false: ``right_key`` was already
        joined as the left side) would only re-price the same plans,
        which ``consider`` rejects as no cheaper; it adds the merge join
        with this left side outer.
        """
        left = self._table[left_key]
        right = self._table[right_key]
        connecting = [
            c
            for c in self._join_clauses
            if len(c.rels) > 1
            and c.rels <= entry.aliases
            and c.rels & left_key
            and c.rels & right_key
        ]
        quals = tuple(c.expr for c in connecting)
        equi_pairs = self._equi_pairs(connecting, left_key, right_key)
        join_rows = entry.rows
        left_plans = left.candidates()
        right_plans = right.candidates()

        if first_way:
            self._consider_nestloop(
                entry, left, right, left_plans, right_plans, quals, join_rows
            )
            if equi_pairs:
                self._consider_hashjoin(
                    entry,
                    left,
                    right,
                    left_plans,
                    right_plans,
                    quals,
                    equi_pairs,
                    join_rows,
                )
        if equi_pairs:
            self._consider_mergejoin(
                entry, left_plans, right_plans, quals, equi_pairs, join_rows
            )

    @staticmethod
    def _equi_pairs(
        connecting: list[ClassifiedClause],
        left_key: frozenset[str],
        right_key: frozenset[str],
    ) -> list[tuple[ColumnRef, ColumnRef]]:
        pairs = []
        for clause in connecting:
            if clause.equi_join is None:
                continue
            (alias_a, col_a), (alias_b, col_b) = clause.equi_join
            ref_a = ColumnRef(column=col_a, table=alias_a)
            ref_b = ColumnRef(column=col_b, table=alias_b)
            if alias_a in left_key:
                pairs.append((ref_a, ref_b))
            else:
                pairs.append((ref_b, ref_a))
        return pairs

    def _consider_nestloop(
        self,
        entry: RelSet,
        left: RelSet,
        right: RelSet,
        left_plans: list[Plan],
        right_plans: list[Plan],
        quals: tuple,
        join_rows: float,
    ) -> None:
        config = self._config
        qual_ops = max(1, len(quals))
        for outer, inner, outer_plans in (
            (left, right, left_plans),
            (right, left, right_plans),
        ):
            inner_plan = inner.cheapest
            for outer_plan in outer_plans:
                outer_costs = (
                    outer_plan.startup_cost,
                    outer_plan.total_cost,
                    outer_plan.rows,
                )
                order = outer_plan.out_order
                # Plain inner (rescanned materialization-free).
                if inner_plan is not None:
                    startup, total = cost_nestloop(
                        config,
                        outer_costs,
                        inner_total=inner_plan.total_cost,
                        inner_rescan=inner_plan.total_cost,
                        join_rows=join_rows,
                        qual_ops=qual_ops,
                    )
                    if entry.keeps(total, order):
                        entry.consider(
                            NestLoop(
                                startup_cost=startup,
                                total_cost=total,
                                rows=join_rows,
                                width=entry.width,
                                out_order=order,
                                outer=outer_plan,
                                inner=inner_plan,
                                join_quals=quals,
                            )
                        )
                # Parameterized inner index scans.
                for param in inner.parameterized:
                    if not param.param_rels <= outer.aliases:
                        continue
                    startup, total = cost_nestloop(
                        config,
                        outer_costs,
                        inner_total=param.total_cost,
                        inner_rescan=param.rescan_cost,
                        join_rows=join_rows,
                        qual_ops=0,  # join clause enforced by the index itself
                    )
                    if entry.keeps(total, order):
                        entry.consider(
                            NestLoop(
                                startup_cost=startup,
                                total_cost=total,
                                rows=join_rows,
                                width=entry.width,
                                out_order=order,
                                outer=outer_plan,
                                inner=param,
                                join_quals=quals,
                            )
                        )

    def _consider_hashjoin(
        self,
        entry: RelSet,
        left: RelSet,
        right: RelSet,
        left_plans: list[Plan],
        right_plans: list[Plan],
        quals: tuple,
        equi_pairs: list[tuple[ColumnRef, ColumnRef]],
        join_rows: float,
    ) -> None:
        config = self._config
        for outer_plans, inner, pairs in (
            (left_plans, right, equi_pairs),
            (right_plans, left, [(b, a) for a, b in equi_pairs]),
        ):
            inner_plan = inner.cheapest
            if inner_plan is None:
                continue
            inner_costs = (
                inner_plan.startup_cost,
                inner_plan.total_cost,
                inner_plan.rows,
                inner_plan.width,
            )
            for outer_plan in outer_plans:
                startup, total = cost_hashjoin(
                    config,
                    (
                        outer_plan.startup_cost,
                        outer_plan.total_cost,
                        outer_plan.rows,
                        outer_plan.width,
                    ),
                    inner_costs,
                    join_rows=join_rows,
                    num_hash_keys=len(pairs),
                )
                if entry.keeps(total, outer_plan.out_order):
                    entry.consider(
                        HashJoin(
                            startup_cost=startup,
                            total_cost=total,
                            rows=join_rows,
                            width=entry.width,
                            out_order=outer_plan.out_order,
                            outer=outer_plan,
                            inner=inner_plan,
                            join_quals=quals,
                            hash_keys=tuple(pairs),
                        )
                    )

    def _consider_mergejoin(
        self,
        entry: RelSet,
        left_plans: list[Plan],
        right_plans: list[Plan],
        quals: tuple,
        equi_pairs: list[tuple[ColumnRef, ColumnRef]],
        join_rows: float,
    ) -> None:
        config = self._config
        outer_keys = [a for a, _ in equi_pairs]
        inner_keys = [b for _, b in equi_pairs]
        # Each side's sort is priced once per split, not once per pair.
        outer_sides = [self._sort_price(p, outer_keys) for p in left_plans]
        inner_sides = [self._sort_price(p, inner_keys) for p in right_plans]
        for outer_plan, outer_startup, outer_total, outer_order in outer_sides:
            for inner_plan, inner_startup, inner_total, _ in inner_sides:
                startup, total = cost_mergejoin(
                    config,
                    (outer_startup, outer_total, outer_plan.rows),
                    (inner_startup, inner_total, inner_plan.rows),
                    join_rows=join_rows,
                    num_merge_keys=len(equi_pairs),
                )
                if not entry.keeps(total, outer_order):
                    continue
                entry.consider(
                    MergeJoin(
                        startup_cost=startup,
                        total_cost=total,
                        rows=join_rows,
                        width=entry.width,
                        out_order=outer_order,
                        outer=self._sorted_plan(
                            outer_plan, outer_keys, outer_startup, outer_total
                        ),
                        inner=self._sorted_plan(
                            inner_plan, inner_keys, inner_startup, inner_total
                        ),
                        join_quals=quals,
                        merge_keys=tuple(equi_pairs),
                    )
                )

    def _sort_price(
        self, plan: Plan, keys: list[ColumnRef]
    ) -> tuple[Plan, float, float, tuple]:
        """``(plan, startup, total, out_order)`` of ``plan`` sorted by
        ``keys`` — its own costs and order when its output order already
        satisfies them (the interesting-order payoff)."""
        required = tuple((k.table, k.column) for k in keys)
        if order_satisfies(plan.out_order, required):
            return plan, plan.startup_cost, plan.total_cost, plan.out_order
        startup, total = cost_sort(
            self._config, plan.startup_cost, plan.total_cost, plan.rows, plan.width
        )
        return plan, startup, total, required

    @staticmethod
    def _sorted_plan(
        plan: Plan, keys: list[ColumnRef], startup: float, total: float
    ) -> Plan:
        """The node :meth:`_sort_price` priced: ``plan`` itself, or a
        ``Sort`` over it costing ``startup``/``total``."""
        required = tuple((k.table, k.column) for k in keys)
        if order_satisfies(plan.out_order, required):
            return plan
        return Sort(
            startup_cost=startup,
            total_cost=total,
            rows=plan.rows,
            width=plan.width,
            out_order=required,
            child=plan,
            sort_keys=tuple(SortItem(expr=k) for k in keys),
        )
