"""A brute-force reference query engine used as the executor's oracle.

Independent of the optimizer and plan structure: it materializes the
cartesian product of the FROM relations, filters with the expression
evaluator, then applies grouping, HAVING, projection, DISTINCT,
ORDER BY, and LIMIT by direct definition. Slow but obviously correct on
the small test databases.

Below it, :class:`ReferenceBTree`: the storage engine's B-Tree as it
was built before the columnar sort, the oracle for ``test_btree.py``.

Then :func:`inum_estimate_detail`: the plain per-entry INUM loop that
was ``InumModel.estimate_detail`` before the array evaluator became
the only pricing path, the oracle for ``test_batch_estimation.py``.

Then :func:`inum_reference_entries`: ``InumModel``'s plan cache built as
it was before the nested-loops-off pass ran only when a nested loop
survived, both passes for every interesting-order combination, the
oracle for ``test_inum.py``.

Then :func:`legacy_dump_state` / :func:`legacy_load_verified`: the
``repro-state-v1`` envelope as it was written and verified before the
canonical text became the envelope body, the oracle for
``test_store.py``.

Then :func:`highs_solve`: HiGHS through ``scipy.optimize.milp``, the
oracle the built-in branch and bound is checked against, and
:class:`HighsSolver`, which stands in for ``BranchAndBoundSolver`` to
run a whole advise on it.

Then :class:`ReferenceJoinSearch`: the join DP as it was before it
built connected subsets only and priced each join before building its
node, the oracle for ``test_joinsearch.py``; :func:`reference_plan`
plans a query with it in the join search's place.

Then :func:`read_statements`: the statement reader as it was before
``iter_statements`` streamed, reading its whole source before the first
statement, the oracle for ``test_workloads.py``.

Then :func:`serving_indexes`: which what-if indexes fresh path
generation builds a path on for each relation of a query, the oracle
for how many queries a what-if session replans (``test_whatif.py``,
``test_interactive.py``, ``test_parallel.py``).

Then :func:`prune_dominated_pairwise`: dominance pruning as the
pairwise loop it was before it compared each table's candidates as
arrays, the oracle for ``test_candidates.py``.

Then the ``WorkloadMonitor`` views as they were before the window and
the decayed profile shared one builder per view: two copies each of
the snapshot, the update rates and the distribution
(:func:`monitor_snapshot` … :func:`monitor_profile_distribution`), the
oracle for ``test_online.py``.

Then the ILP advisor's selection inputs as they were before the
savings array was the only benefit representation: the benefit
mapping (:func:`ilp_benefit_mapping`), the program built from it
(:func:`ilp_program`) and the additive greedy fallback that ranked its
singleton benefits (:func:`additive_greedy_fallback`), the oracles for
``test_ilp_advisor.py``.

Last, :func:`refine_climb`: the advisor's drop/add/swap climb as it was
before it priced each scan in array batches from a cursor, one trial
configuration at a time behind a memo, the oracle for
``test_ilp_advisor.py``.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Iterator
from unittest import mock

from repro.advisor.candidates import prune_dominated
from repro.advisor.ilp_advisor import maintenance_cost
from repro.catalog.schema import Index, Table
from repro.catalog.sizing import (
    BLOCK_SIZE,
    BTREE_LEAF_FILLFACTOR,
    INDEX_ROW_OVERHEAD,
    PAGE_HEADER_SIZE,
    aligned_row_width,
)
from repro.executor.aggregates import AggregateAccumulator
from repro.errors import PlannerError
from repro.ilp.model import LinearProgram, Sense
from repro.ilp.solution import MilpSolution
from repro.optimizer.clauses import ClassifiedClause
from repro.optimizer.config import PlannerConfig
from repro.optimizer.cost import (
    clamp_rows,
    cost_hashjoin,
    cost_mergejoin,
    cost_nestloop,
    cost_sort,
)
from repro.optimizer.joinsearch import RelSet, order_satisfies
from repro.optimizer.paths import (
    BaseRel,
    index_paths,
    parameterized_index_paths,
)
from repro.optimizer.planner import Planner
from repro.optimizer.plans import HashJoin, IndexScan, MergeJoin, NestLoop, Plan, Sort
from repro.optimizer.selectivity import (
    equijoin_selectivity,
    generic_join_selectivity,
)
from repro.sql.ast_nodes import ColumnRef, FuncCall, SortItem
from repro.sql.binder import BoundQuery, bind
from repro.sql.parser import parse_select
from repro.sql.expressions import evaluate, is_true
from repro.storage.database import Database
from repro.storage.heap import HeapFile
from repro.online.monitor import DML_KINDS
from repro.workloads.workload import Query, Workload


def run_reference(db: Database, query: BoundQuery) -> list[tuple]:
    stmt = query.statement

    # FROM: cartesian product of base rows as (alias, column) contexts.
    per_rel_rows = []
    for entry in query.rels:
        heap = db.relation(entry.table.name).heap
        contexts = []
        for row_idx in heap.scan():
            contexts.append(
                {
                    (entry.alias, name): heap.value(row_idx, name)
                    for name in entry.table.column_names
                }
            )
        per_rel_rows.append(contexts)

    joined = []
    for combo in itertools.product(*per_rel_rows):
        row: dict = {}
        for part in combo:
            row.update(part)
        if all(is_true(evaluate(q, row)) for q in query.quals):
            joined.append(row)

    has_aggs = any(
        isinstance(n, FuncCall) and n.is_aggregate
        for item in stmt.targets
        for n in item.expr.walk()
    )

    if stmt.group_by or has_aggs:
        output_rows = _aggregate(stmt, joined)
    else:
        output_rows = []
        for row in joined:
            out = dict(row)
            for item in stmt.targets:
                out[item.expr] = evaluate(item.expr, row)
            output_rows.append(out)

    if stmt.distinct:
        seen = set()
        deduped = []
        for row in output_rows:
            key = tuple(_norm(row[item.expr]) for item in stmt.targets)
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        output_rows = deduped

    if stmt.order_by:
        def sort_key(row):
            parts = []
            for item in stmt.order_by:
                value = row.get(item.expr)
                if value is None and item.expr not in row:
                    value = evaluate(item.expr, row)
                null_flag = 1 if value is None else 0
                if item.descending:
                    parts.append((-null_flag, _Rev(value)))
                else:
                    parts.append((null_flag, _norm(value)))
            return parts

        output_rows.sort(key=sort_key)

    if stmt.limit is not None:
        output_rows = output_rows[: stmt.limit]

    return [
        tuple(row[item.expr] for item in stmt.targets) for row in output_rows
    ]


def _aggregate(stmt, joined: list[dict]) -> list[dict]:
    agg_calls: list[FuncCall] = []
    roots = [item.expr for item in stmt.targets]
    if stmt.having is not None:
        roots.append(stmt.having)
    for root in roots:
        for node in root.walk():
            if isinstance(node, FuncCall) and node.is_aggregate and node not in agg_calls:
                agg_calls.append(node)

    groups: dict[tuple, tuple[dict, list[AggregateAccumulator]]] = {}
    order: list[tuple] = []
    for row in joined:
        key = tuple(_norm(evaluate(k, row)) for k in stmt.group_by)
        if key not in groups:
            groups[key] = (row, [AggregateAccumulator(c) for c in agg_calls])
            order.append(key)
        for acc in groups[key][1]:
            acc.add(row)
    if not stmt.group_by and not groups:
        groups[()] = ({}, [AggregateAccumulator(c) for c in agg_calls])
        order.append(())

    out = []
    for key in order:
        sample, accs = groups[key]
        values = {call: acc.result() for call, acc in zip(agg_calls, accs)}

        def eval_agg(expr, sample=sample, values=values):
            from repro.executor.executor import _eval_with_aggs

            return _eval_with_aggs(expr, sample, values)

        if stmt.having is not None and not is_true(eval_agg(stmt.having)):
            continue
        row = dict(sample)
        row.update(values)
        for item in stmt.targets:
            row[item.expr] = eval_agg(item.expr)
        out.append(row)
    return out


def _norm(value: Any):
    if value is None:
        return (1, 0)
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, float):
        # Accumulation order differs between executor and reference;
        # compare to 6 decimal places of relative precision.
        return (0, round(value, 6) if abs(value) < 1e6 else round(value, 0))
    return (0, value)


class _Rev:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = _norm(v)

    def __lt__(self, other):
        return other.v < self.v

    def __eq__(self, other):
        return other.v == self.v


def rows_equal(actual: list[tuple], expected: list[tuple], ordered: bool) -> bool:
    """Compare result sets, as multisets unless ``ordered``."""
    def canonical(rows):
        return [tuple(_norm(v) for v in row) for row in rows]

    a, b = canonical(actual), canonical(expected)
    if ordered:
        return a == b
    return sorted(a) == sorted(b)


# ----------------------------------------------------------------------
# The wrapper-object B-Tree, kept as the columnar build's oracle.
#
# Moved here verbatim from ``repro.storage.btree`` when the production
# build became one columnar sort: a ``_KeyPart`` per key column per row,
# a ``_LeafEntry`` per row, Python-level ``__lt__``/``__eq__`` under
# ``list.sort`` and ``bisect``. ``test_btree.py`` checks that the two
# agree on order, page accounting and range search (NaN apart: this
# order is not total over NaN, which is the bug the rewrite fixed).


class _KeyPart:
    """Wrapper making heterogeneous/None key parts totally ordered.

    SQL NULLs sort last (PostgreSQL's default NULLS LAST for ASC).
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _InfinityPart):
            return True
        if not isinstance(other, _KeyPart):
            return NotImplemented  # type: ignore[return-value]
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _KeyPart) and self.value == other.value

    def __le__(self, other: "_KeyPart") -> bool:
        return self == other or self < other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_KeyPart({self.value!r})"


def _wrap_key(values: tuple[Any, ...]) -> tuple[_KeyPart, ...]:
    return tuple(_KeyPart(v) for v in values)


@dataclass(frozen=True)
class _LeafEntry:
    key: tuple[_KeyPart, ...]
    row_id: int


class _InfinityPart:
    """Sorts after every _KeyPart, including NULL."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return False

    def __gt__(self, other: object) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _InfinityPart)


class ReferenceBTree:
    """The pre-columnar ``BTreeIndex``, minus its fault checks."""

    def __init__(
        self,
        definition: Index,
        table: Table,
        heap: HeapFile,
        fillfactor: float = BTREE_LEAF_FILLFACTOR,
    ) -> None:
        self.definition = definition
        self._fillfactor = fillfactor

        columns = [heap.column(name) for name in definition.columns]
        entries = [
            _LeafEntry(key=_wrap_key(tuple(col[i] for col in columns)), row_id=i)
            for i in range(heap.row_count)
        ]
        entries.sort(key=lambda e: e.key)
        self._entries = entries
        self._keys = [e.key for e in entries]

        self._entry_width = self._compute_entry_width(table, definition, heap)
        self._leaf_page_count = self._compute_leaf_pages(len(entries))
        self._height = self._compute_height(len(entries))

    # ------------------------------------------------------------------
    # Page accounting

    @staticmethod
    def _compute_entry_width(table: Table, definition: Index, heap: HeapFile) -> int:
        widths_and_aligns: list[tuple[int, int]] = []
        for name in definition.columns:
            dtype = table.column(name).dtype
            if dtype.typlen is not None:
                avg = dtype.typlen
            else:
                values = [v for v in heap.column(name) if v is not None]
                if values:
                    avg = max(
                        1, round(sum(dtype.value_width(v) for v in values) / len(values))
                    )
                else:
                    avg = dtype.default_width
            widths_and_aligns.append((avg, dtype.typalign))
        return aligned_row_width(widths_and_aligns, INDEX_ROW_OVERHEAD)

    def _compute_leaf_pages(self, entry_count: int) -> int:
        if entry_count == 0:
            return 1
        usable = (BLOCK_SIZE - PAGE_HEADER_SIZE) * self._fillfactor
        per_page = max(1, int(usable // self._entry_width))
        return max(1, math.ceil(entry_count / per_page))

    def _compute_height(self, entry_count: int) -> int:
        """Tree height above the leaf level (0 when a single leaf)."""
        if entry_count == 0:
            return 0
        fanout = max(2, (BLOCK_SIZE - PAGE_HEADER_SIZE) // max(8, self._entry_width))
        pages = self._leaf_page_count
        height = 0
        while pages > 1:
            pages = math.ceil(pages / fanout)
            height += 1
        return height

    @property
    def leaf_page_count(self) -> int:
        return self._leaf_page_count

    @property
    def height(self) -> int:
        return self._height

    def leaf_page_of_position(self, position: int) -> int:
        """Which leaf page holds the entry at sorted ``position``."""
        if not self._entries:
            return 0
        per_page = max(1, math.ceil(len(self._entries) / self._leaf_page_count))
        return position // per_page

    # ------------------------------------------------------------------
    # Search

    def search_range(
        self,
        low: tuple[Any, ...] | None,
        high: tuple[Any, ...] | None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[int, int]]:
        """Yield ``(row_id, leaf_page)`` for keys in [low, high], key order.

        Bounds are prefixes of the key (shorter tuples match any suffix).
        ``None`` bounds are open. NULL key entries never match a bounded
        range (SQL comparisons with NULL are unknown).
        """
        start = 0
        if low is not None:
            wrapped = _wrap_key(low)
            if low_inclusive:
                start = bisect.bisect_left(self._keys, wrapped)
            else:
                start = bisect.bisect_right(self._keys, self._pad_high(wrapped))

        end = len(self._entries)
        if high is not None:
            wrapped = _wrap_key(high)
            if high_inclusive:
                end = bisect.bisect_right(self._keys, self._pad_high(wrapped))
            else:
                end = bisect.bisect_left(self._keys, wrapped)

        for position in range(start, end):
            entry = self._entries[position]
            if self._key_has_null(entry.key, low, high):
                continue
            yield entry.row_id, self.leaf_page_of_position(position)

    def scan_all(self) -> Iterator[tuple[int, int]]:
        """Full index scan in key order (NULL keys last)."""
        for position, entry in enumerate(self._entries):
            yield entry.row_id, self.leaf_page_of_position(position)

    @staticmethod
    def _key_has_null(
        key: tuple[_KeyPart, ...],
        low: tuple[Any, ...] | None,
        high: tuple[Any, ...] | None,
    ) -> bool:
        bound_len = max(
            len(low) if low is not None else 0, len(high) if high is not None else 0
        )
        return any(part.value is None for part in key[:bound_len])

    @staticmethod
    def _pad_high(key: tuple[_KeyPart, ...]) -> tuple:
        """Extend a prefix bound so bisect treats it as +inf in the suffix."""
        return key + (_InfinityPart(),)


# ----------------------------------------------------------------------
# The scalar INUM estimator


def inum_estimate_detail(model, config_indexes=()):
    """INUM cost of ``model``'s query under ``config_indexes`` plus which
    configuration index serves each relation (None = sequential scan) in
    the winning cache entry — one Python loop over the configuration,
    one over the cache entries, no arrays and no memo."""
    inf = float("inf")
    by_table: dict = {}
    for index in config_indexes:
        by_table.setdefault(index.table_name, []).append(index)

    best: dict = {}
    ordered: dict = {}
    for rel in model.query.rels:
        alias = rel.alias
        best[alias] = (model._seq_costs[alias], None)
        for index in by_table.get(rel.table.name, []):
            info = model._access_info(alias, index)
            if info.cost < best[alias][0]:
                best[alias] = (info.cost, index.name)
            for order_col in info.provides:
                key = (alias, order_col)
                if info.cost < ordered.get(key, (inf, None))[0]:
                    ordered[key] = (info.cost, index.name)

    best_cost = inf
    best_detail: dict = {}
    for entry in model.entries:
        total = entry.internal_cost
        usable = True
        detail: dict = {}
        for alias, order in entry.order_vector:
            if order is None:
                access, chosen = best[alias]
            else:
                access, chosen = ordered.get((alias, order), (inf, None))
                if access == inf:
                    usable = False
                    break
            detail[alias] = chosen
            total += entry.loops_of(alias) * access
        if usable and total < best_cost:
            best_cost = total
            best_detail = detail
    return best_cost, best_detail


def inum_estimate(model, config_indexes=()) -> float:
    return inum_estimate_detail(model, config_indexes)[0]


def inum_reference_entries(model) -> list:
    """``model``'s cache entries built the long way: every interesting-
    order combination planned with nested loops enabled and again with
    them disabled, each plan decomposed into a :class:`CacheEntry`."""
    from repro.inum.model import CacheEntry
    from repro.optimizer.cost import clamp_rows
    from repro.optimizer.planner import Planner
    from repro.optimizer.plans import Scan

    def decompose(plan):
        scans = {}

        def walk(node, multiplier):
            if isinstance(node, Scan):
                scans[node.alias] = (node.total_cost, multiplier)
            elif isinstance(node, NestLoop):
                walk(node.outer, multiplier)
                walk(node.inner, multiplier * clamp_rows(node.outer.rows))
            else:
                for child in node.children():
                    walk(child, multiplier)

        walk(plan, 1.0)
        return scans

    entries = []
    for order_vector in model._combinations():
        prepared = model._prepared.with_relation_info(
            model._synthetic_info(order_vector)
        )
        for nestloop in (True, False):
            config = model._stripped.with_flags(enable_nestloop=nestloop)
            try:
                plan = Planner(model._catalog, config).plan_prepared(
                    model.query, prepared
                )
            except PlannerError:
                continue
            scans = decompose(plan)
            internal = plan.total_cost
            for cost, loop in scans.values():
                internal -= cost * loop
            entries.append(
                CacheEntry(
                    order_vector=order_vector,
                    nestloop_enabled=nestloop,
                    internal_cost=internal,
                    loops=tuple(sorted((a, l) for a, (_c, l) in scans.items())),
                    plan=plan,
                )
            )
    return entries


# ----------------------------------------------------------------------
# The state-file envelope before the canonical text was its body


def _legacy_sha(state: dict) -> str:
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def legacy_dump_state(path: str, state: dict) -> None:
    """Write ``state`` the way the earlier writer did: the envelope as a
    spaced ``json.dumps``, the previous primary rotated to ``.bak``."""
    text = json.dumps(
        {"format": "repro-state-v1", "sha256": _legacy_sha(state), "state": state}
    )
    with open(path + ".tmp", "w") as handle:
        handle.write(text)
    if os.path.exists(path):
        os.replace(path, path + ".bak")
    os.replace(path + ".tmp", path)


def legacy_load_verified(path: str) -> dict:
    """One envelope file -> its state, checked the way every earlier
    loader checked it: ``json.load``, then the sha256 of the
    re-canonicalised state must equal the recorded one."""
    with open(path) as handle:
        data = json.load(handle)
    assert data["format"] == "repro-state-v1", path
    assert _legacy_sha(data["state"]) == data["sha256"], f"{path} fails its checksum"
    return data["state"]


# ----------------------------------------------------------------------
# The HiGHS MILP oracle


def highs_solve(program: LinearProgram) -> MilpSolution:
    """Solve ``program`` (a maximization) with HiGHS; the status is
    ``optimal`` or ``infeasible`` and no node count is reported."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    compiled = program.compile()
    n = compiled.objective.shape[0]
    constraints = []
    if compiled.a_ub.size:
        constraints.append(LinearConstraint(compiled.a_ub, -np.inf, compiled.b_ub))
    if compiled.a_eq.size:
        constraints.append(
            LinearConstraint(compiled.a_eq, compiled.b_eq, compiled.b_eq)
        )
    upper = np.where(
        np.isfinite(compiled.upper_bounds), compiled.upper_bounds, np.inf
    )
    result = milp(
        c=-compiled.objective,  # scipy minimizes
        constraints=constraints,
        integrality=compiled.integer_mask.astype(int),
        bounds=Bounds(np.zeros(n), upper),
    )
    if not result.success:
        return MilpSolution(status="infeasible", objective=None)
    return MilpSolution(
        status="optimal",
        objective=float(-result.fun),
        values={var.name: float(result.x[var.index]) for var in program.variables},
        nodes_explored=0,
    )


class HighsSolver:
    """``BranchAndBoundSolver``'s stand-in: takes (and ignores) its
    keywords and solves every program with :func:`highs_solve`."""

    def __init__(self, **_options) -> None:
        pass

    @staticmethod
    def solve(program: LinearProgram) -> MilpSolution:
        return highs_solve(program)


# ----------------------------------------------------------------------
# The join search before connected subsets and price-first joins


class ReferenceJoinSearch:
    """``JoinSearch`` as it was before it built connected subsets only and
    priced joins before building them: a plan node for every considered
    join, and at every level a cartesian retry of each subset with no
    connected split. ``RelSet`` keeps what it always kept."""

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

    # ------------------------------------------------------------------

    def run(self) -> RelSet:
        """Run the DP; returns the final RelSet (cheapest + ordered plans)."""
        aliases = sorted(self._base_rels)
        n = len(aliases)
        if n == 1:
            return self._table[frozenset(aliases)]

        for level in range(2, n + 1):
            for subset in itertools.combinations(aliases, level):
                subset_key = frozenset(subset)
                entry = self._make_relset(subset_key)
                for left_key, right_key in self._splits(subset_key):
                    self._consider_join(entry, left_key, right_key)
                if entry.cheapest is not None:
                    self._table[subset_key] = entry
            # When the join graph is disconnected no subset at this level
            # may have produced a plan through connected splits; retry
            # allowing cartesian products.
            missing = [
                frozenset(s)
                for s in itertools.combinations(aliases, level)
                if frozenset(s) not in self._table
            ]
            for subset_key in missing:
                entry = self._make_relset(subset_key)
                for left_key, right_key in self._splits(subset_key, allow_cartesian=True):
                    self._consider_join(entry, left_key, right_key)
                if entry.cheapest is not None:
                    self._table[subset_key] = entry

        final = self._table.get(frozenset(aliases))
        if final is None or final.cheapest is None:
            raise PlannerError("join search failed to produce a complete plan")
        return final

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
        self, entry: RelSet, left_key: frozenset[str], right_key: frozenset[str]
    ) -> None:
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

        self._consider_nestloop(entry, left, right, quals, join_rows)
        if equi_pairs:
            self._consider_hashjoin(entry, left, right, quals, equi_pairs, join_rows)
            self._consider_mergejoin(entry, left, right, quals, equi_pairs, join_rows)

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
        quals: tuple,
        join_rows: float,
    ) -> None:
        config = self._config
        for outer, inner in ((left, right), (right, left)):
            for outer_plan in outer.candidates():
                # Plain inner (rescanned materialization-free).
                inner_plan = inner.cheapest
                if inner_plan is not None:
                    startup, total = cost_nestloop(
                        config,
                        (
                            outer_plan.startup_cost,
                            outer_plan.total_cost,
                            outer_plan.rows,
                        ),
                        inner_total=inner_plan.total_cost,
                        inner_rescan=inner_plan.total_cost,
                        join_rows=join_rows,
                        qual_ops=max(1, len(quals)) * 1,
                    )
                    entry.consider(
                        NestLoop(
                            startup_cost=startup,
                            total_cost=total,
                            rows=join_rows,
                            width=entry.width,
                            out_order=outer_plan.out_order,
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
                        (
                            outer_plan.startup_cost,
                            outer_plan.total_cost,
                            outer_plan.rows,
                        ),
                        inner_total=param.total_cost,
                        inner_rescan=param.rescan_cost,
                        join_rows=join_rows,
                        qual_ops=0,  # join clause enforced by the index itself
                    )
                    entry.consider(
                        NestLoop(
                            startup_cost=startup,
                            total_cost=total,
                            rows=join_rows,
                            width=entry.width,
                            out_order=outer_plan.out_order,
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
        quals: tuple,
        equi_pairs: list[tuple[ColumnRef, ColumnRef]],
        join_rows: float,
    ) -> None:
        config = self._config
        for outer, inner, pairs in (
            (left, right, equi_pairs),
            (right, left, [(b, a) for a, b in equi_pairs]),
        ):
            inner_plan = inner.cheapest
            if inner_plan is None:
                continue
            for outer_plan in outer.candidates():
                startup, total = cost_hashjoin(
                    config,
                    (
                        outer_plan.startup_cost,
                        outer_plan.total_cost,
                        outer_plan.rows,
                        outer_plan.width,
                    ),
                    (
                        inner_plan.startup_cost,
                        inner_plan.total_cost,
                        inner_plan.rows,
                        inner_plan.width,
                    ),
                    join_rows=join_rows,
                    num_hash_keys=len(pairs),
                )
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
        left: RelSet,
        right: RelSet,
        quals: tuple,
        equi_pairs: list[tuple[ColumnRef, ColumnRef]],
        join_rows: float,
    ) -> None:
        config = self._config
        outer_keys = [a for a, _ in equi_pairs]
        inner_keys = [b for _, b in equi_pairs]
        for outer_plan in left.candidates():
            for inner_plan in right.candidates():
                sorted_outer = self._sorted_plan(outer_plan, outer_keys)
                sorted_inner = self._sorted_plan(inner_plan, inner_keys)
                startup, total = cost_mergejoin(
                    config,
                    (
                        sorted_outer.startup_cost,
                        sorted_outer.total_cost,
                        sorted_outer.rows,
                    ),
                    (
                        sorted_inner.startup_cost,
                        sorted_inner.total_cost,
                        sorted_inner.rows,
                    ),
                    join_rows=join_rows,
                    num_merge_keys=len(equi_pairs),
                )
                entry.consider(
                    MergeJoin(
                        startup_cost=startup,
                        total_cost=total,
                        rows=join_rows,
                        width=entry.width,
                        out_order=sorted_outer.out_order,
                        outer=sorted_outer,
                        inner=sorted_inner,
                        join_quals=quals,
                        merge_keys=tuple(equi_pairs),
                    )
                )

    def _sorted_plan(self, plan: Plan, keys: list[ColumnRef]) -> Plan:
        """Sort ``plan`` by ``keys`` — or return it as-is when its output
        order already satisfies them (the interesting-order payoff)."""
        required = tuple((k.table, k.column) for k in keys)
        if order_satisfies(plan.out_order, required):
            return plan
        startup, total = cost_sort(
            self._config, plan.startup_cost, plan.total_cost, plan.rows, plan.width
        )
        return Sort(
            startup_cost=startup,
            total_cost=total,
            rows=plan.rows,
            width=plan.width,
            out_order=required,
            child=plan,
            sort_keys=tuple(SortItem(expr=k) for k in keys),
        )


def reference_plan(planner, query):
    """``planner``'s plan for ``query`` with :class:`ReferenceJoinSearch`
    standing in for the join search."""
    with mock.patch("repro.optimizer.planner.JoinSearch", ReferenceJoinSearch):
        return planner.plan(query)


def read_statements(source) -> list[str]:
    """Every statement of ``source``, read to its end first, then split."""
    if source is None or source == "-":
        text = sys.stdin.read()
    elif isinstance(source, str):
        with open(source) as handle:
            text = handle.read()
    else:
        text = "".join(source)
    return [s.strip() for s in text.split(";") if s.strip()]


def serving_indexes(session, sql: str) -> tuple:
    """Per alias of ``sql`` bound in ``session``'s catalog, the session
    indexes (name, key, unique) that fresh ``index_paths`` and
    ``parameterized_index_paths`` build a scan on, in the order the
    relation lists them. A cached what-if plan stays exact exactly as
    long as this value holds, the catalog version and the join flags
    do not move."""
    config = session.config
    prepared = Planner(session.catalog, config).prepare(
        bind(session.catalog, parse_select(sql))
    )
    served = []
    for alias, rel in prepared.base_rels.items():
        paths = index_paths(config, rel) + parameterized_index_paths(
            config, rel, prepared.join_clauses
        )
        names = {path.index_name for path in paths if path.hypothetical}
        served.append((
            alias,
            tuple(
                (ix.name, ix.columns, ix.definition.unique)
                for ix in rel.info.indexes
                if ix.name in names
            ),
        ))
    return tuple(served)


# ----------------------------------------------------------------------
# Dominance pruning, one candidate pair at a time


def prune_dominated_pairwise(candidates, savings, maintenance) -> list[int]:
    """``repro.advisor.candidates.prune_dominated`` as a loop over
    same-table pairs: ``j`` goes when a not-yet-dropped ``i`` is no
    worse on every query's saving, size and upkeep, and better on one
    of them or earlier in the pool."""
    import numpy as np

    n = len(candidates)
    maint = np.asarray(maintenance, dtype=float)
    sizes = np.array([c.size_pages for c in candidates], dtype=float)
    by_table: dict[str, list[int]] = {}
    for position, candidate in enumerate(candidates):
        by_table.setdefault(candidate.index.table_name, []).append(position)
    dominated = np.zeros(n, dtype=bool)
    for positions in by_table.values():
        for j in positions:
            for i in positions:
                if i == j or dominated[i]:
                    continue
                if sizes[i] > sizes[j] or maint[i] > maint[j]:
                    continue
                if np.any(savings[:, i] < savings[:, j]):
                    continue
                strict = (
                    sizes[i] < sizes[j]
                    or maint[i] < maint[j]
                    or bool(np.any(savings[:, i] > savings[:, j]))
                )
                if strict or i < j:
                    dominated[j] = True
                    break
    return [p for p in range(n) if not dominated[p]]


# ----------------------------------------------------------------------
# The monitor's window and profile views, one copy per map


def monitor_window_distribution(monitor) -> dict[str, float]:
    total = len(monitor._window)
    if not total:
        return {}
    return {fp: c / total for fp, c in monitor._window_counts.items()}


def monitor_profile_distribution(monitor) -> dict[str, float]:
    total = sum(monitor._profile.values())
    if not total:
        return {}
    return {fp: v / total for fp, v in monitor._profile.items()}


def monitor_update_rates(monitor) -> dict[str, float]:
    rates: dict[str, float] = {}
    for fingerprint, count in monitor._window_counts.items():
        template = monitor._templates[fingerprint]
        if template.kind in DML_KINDS and template.target_table:
            rates[template.target_table] = (
                rates.get(template.target_table, 0.0) + float(count)
            )
    return rates


def monitor_profile_update_rates(monitor) -> dict[str, float]:
    rates: dict[str, float] = {}
    for fingerprint, weight in monitor._profile.items():
        if weight <= 0.0:
            continue
        template = monitor._templates[fingerprint]
        if template.kind in DML_KINDS and template.target_table:
            rates[template.target_table] = (
                rates.get(template.target_table, 0.0) + weight
            )
    return rates


def monitor_profile_snapshot(monitor, name: str | None = None) -> Workload:
    templates = sorted(
        (
            monitor._templates[fp]
            for fp, weight in monitor._profile.items()
            if weight > 0.0
            and monitor._templates[fp].kind == "select"
            and fp not in monitor._quarantined
        ),
        key=lambda t: t.sequence,
    )
    queries = [
        Query(
            name=t.template_id,
            sql=t.example_sql,
            weight=float(monitor._profile[t.fingerprint]),
        )
        for t in templates
    ]
    return Workload(
        queries=queries,
        name=name or f"profile@{monitor._observed}",
        update_rates=monitor_profile_update_rates(monitor),
    )


def monitor_snapshot(monitor, name: str | None = None) -> Workload:
    templates = sorted(
        (
            monitor._templates[fp]
            for fp in monitor._window_counts
            if monitor._templates[fp].kind == "select"
            and fp not in monitor._quarantined
        ),
        key=lambda t: t.sequence,
    )
    queries = [
        Query(
            name=t.template_id,
            sql=t.example_sql,
            weight=float(monitor._window_counts[t.fingerprint]),
        )
        for t in templates
    ]
    return Workload(
        queries=queries,
        name=name or f"online@{monitor._observed}",
        update_rates=monitor_update_rates(monitor),
    )


# ----------------------------------------------------------------------
# The ILP advisor's benefit mapping, its program and the additive
# greedy fallback

_MIN_BENEFIT = 1e-6


def ilp_maintenance(config, candidates, update_rates) -> dict[int, float]:
    """Per-candidate upkeep, keyed by position, for taxed tables only."""
    if not update_rates:
        return {}
    costs: dict[int, float] = {}
    for position, candidate in enumerate(candidates):
        rate = update_rates.get(candidate.index.table_name, 0.0)
        if rate > 0:
            costs[position] = maintenance_cost(config, rate)
    return costs


def ilp_benefit_mapping(workload, candidates, evaluator, maintenance):
    """``{(query name, position): saving}`` after dominance pruning.

    Keys run query by query in workload order, positions ascending, and
    only where the weighted singleton saving clears the benefit floor
    (NaN rows drop out); the pruned positions are filtered out of the
    mapping, keeping that order.
    """
    import numpy as np

    base = evaluator.base_costs()
    singles = evaluator.singleton_costs()
    weights = [query.weight for query in workload]
    savings = (base[:, None] - singles) * np.asarray(weights)[:, None]
    benefits: dict[tuple[str, int], float] = {}
    for q, query in enumerate(workload):
        row = savings[q]
        for p in np.nonzero(row > _MIN_BENEFIT)[0].tolist():
            benefits[(query.name, p)] = float(row[p])
    kept = prune_dominated(
        candidates,
        np.where(savings > _MIN_BENEFIT, savings, 0.0),
        [maintenance.get(p, 0.0) for p in range(len(candidates))],
    )
    if len(kept) < len(candidates):
        allowed = set(kept)
        benefits = {
            key: value for key, value in benefits.items() if key[1] in allowed
        }
    return benefits


def ilp_program(
    workload, candidates, benefits, budget_pages, maintenance, max_update_cost
) -> LinearProgram | None:
    """The index-selection program over a benefit mapping (``None``
    when nothing has benefit): a ``y`` and a ``y <= x`` row per mapping
    entry in its order, then the update-cost row, one exclusivity row
    per (query, table) and the storage budget."""
    if not benefits:
        return None
    useful = sorted({position for (_q, position) in benefits})
    program = LinearProgram(name="index-selection")
    x_vars = {
        position: program.add_binary(f"x_{position}") for position in useful
    }
    y_vars: dict[tuple[str, int], object] = {}
    objective: dict[object, float] = {}
    for (query_name, position), saving in benefits.items():
        y = program.add_binary(f"y_{query_name}_{position}")
        y_vars[(query_name, position)] = y
        objective[y] = saving
        program.add_constraint({y: 1.0, x_vars[position]: -1.0}, Sense.LE, 0.0)
    for position, cost in maintenance.items():
        if position in x_vars:
            objective[x_vars[position]] = -cost
    program.set_objective(objective)
    if max_update_cost is not None and maintenance:
        program.add_constraint(
            {x_vars[p]: maintenance[p] for p in useful if p in maintenance},
            Sense.LE,
            max_update_cost,
        )
    for query in workload:
        by_table: dict[str, list[object]] = {}
        for position in useful:
            if (query.name, position) in y_vars:
                table = candidates[position].index.table_name
                by_table.setdefault(table, []).append(
                    y_vars[(query.name, position)]
                )
        for ys in by_table.values():
            if len(ys) > 1:
                program.add_exclusive(ys)
    program.add_constraint(
        {x_vars[p]: float(candidates[p].size_pages) for p in useful},
        Sense.LE,
        float(budget_pages),
    )
    return program


def additive_greedy_fallback(
    candidates, benefits, budget_pages, maintenance, max_update_cost
) -> list[int]:
    """Rank positions by total mapped saving net of upkeep and take them
    in that order while the storage budget and the update cap hold."""
    total: dict[int, float] = {}
    for (_query, position), saving in benefits.items():
        total[position] = total.get(position, 0.0) + saving
    order = sorted(
        total, key=lambda p: (-(total[p] - maintenance.get(p, 0.0)), p)
    )
    chosen: list[int] = []
    used_pages = 0
    upkeep = 0.0
    for position in order:
        gain = total[position] - maintenance.get(position, 0.0)
        if gain <= _MIN_BENEFIT:
            continue
        size = candidates[position].size_pages
        if used_pages + size > budget_pages:
            continue
        cost = maintenance.get(position, 0.0)
        if max_update_cost is not None and upkeep + cost > max_update_cost + 1e-9:
            continue
        chosen.append(position)
        used_pages += size
        upkeep += cost
    return sorted(chosen)


# The refine climb as it was before it priced its scan in array
# batches from a cursor


def refine_climb(
    candidates,
    evaluator,
    chosen,
    budget_pages,
    maintenance,
    max_update_cost,
    max_rounds: int = 6,
    moves: dict[str, int] | None = None,
) -> list[int]:
    """Drop, add and swap one trial at a time over full INUM estimates.

    Each round speculatively primes the evaluator's memo with every
    trial against the round-start design, then scans sequentially: a
    drop is taken when the cost does not rise, an add or a same-table
    swap when it falls by more than 1e-9, and the scan goes on against
    the changed design. Total costs are memoized by position set.
    ``moves``, when given, counts the accepted ``"drop"``, ``"add"``
    and ``"swap"`` moves.
    """
    moves = {} if moves is None else moves

    def took(kind: str) -> None:
        moves[kind] = moves.get(kind, 0) + 1

    pool = range(len(candidates))
    cost_memo: dict[frozenset[int], float] = {}

    def total_cost(positions: list[int]) -> float:
        key = frozenset(positions)
        cached = cost_memo.get(key)
        if cached is not None:
            return cached
        cost = evaluator.workload_cost(positions) + sum(
            maintenance[p] for p in positions
        )
        cost_memo[key] = cost
        return cost

    def fits(positions: list[int]) -> bool:
        if sum(candidates[p].size_pages for p in positions) > budget_pages:
            return False
        if max_update_cost is not None:
            upkeep = sum(maintenance[p] for p in positions)
            if upkeep > max_update_cost + 1e-9:
                return False
        return True

    def prefetch(current: list[int]) -> None:
        trials = [[p for p in current if p != position] for position in current]
        trials += [
            current + [p]
            for p in pool
            if p not in current and fits(current + [p])
        ]
        in_current = set(current)
        for position in pool:
            if position in in_current:
                continue
            table = candidates[position].index.table_name
            for existing in current:
                if candidates[existing].index.table_name != table:
                    continue
                swap = [p for p in current if p != existing] + [position]
                if fits(swap):
                    trials.append(swap)
        evaluator.prime(trials)

    current = list(chosen)
    current_cost = total_cost(current)
    for _ in range(max_rounds):
        improved = False
        prefetch(current)
        for position in list(current):
            trial = [p for p in current if p != position]
            cost = total_cost(trial)
            if cost <= current_cost:
                improved = improved or cost < current_cost - 1e-9
                current, current_cost = trial, cost
                took("drop")
        for position in pool:
            if position in current:
                continue
            addition = current + [position]
            if fits(addition):
                cost = total_cost(addition)
                if cost < current_cost - 1e-9:
                    current, current_cost = addition, cost
                    improved = True
                    took("add")
                    continue
            table = candidates[position].index.table_name
            for existing in list(current):
                if candidates[existing].index.table_name != table:
                    continue
                swap = [p for p in current if p != existing] + [position]
                if not fits(swap):
                    continue
                cost = total_cost(swap)
                if cost < current_cost - 1e-9:
                    current, current_cost = swap, cost
                    improved = True
                    took("swap")
                    break
        if not improved:
            break
    return sorted(current)
