"""Candidate index generation from workload analysis.

"First, the component determines a large set of candidate indexes by
analyzing the workload" (§3.4). For every query and table we collect the
indexable columns by role — equality, range, join, grouping/ordering,
and plain output — and emit single- and multicolumn candidates:
equality prefixes, equality+range composites, join+filter composites,
and covering (index-only) candidates. Candidates are deduplicated
across the workload by (table, column-sequence) and sized with
Equation 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index
from repro.catalog.sizing import estimate_index_pages_batch
from repro.errors import AdvisorError
from repro.optimizer.clauses import classify_all
from repro.sql.ast_nodes import ColumnRef
from repro.sql.binder import BoundQuery
from repro.workloads.workload import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.caches import CostCache

#: Most columns a covering (index-only) candidate may have.
MAX_COVERING_WIDTH = 4


@dataclass(frozen=True)
class CandidateIndex:
    """One candidate with its Equation-1 size."""

    index: Index
    size_pages: int

    @property
    def name(self) -> str:
        return self.index.name

    @property
    def signature(self) -> tuple[str, tuple[str, ...]]:
        return (self.index.table_name, self.index.columns)


@dataclass
class _TableRoles:
    """Column roles for one table within one query."""

    eq: list[str]
    range_: list[str]
    join: list[str]
    order: list[str]
    referenced: list[str]


def _roles_for_query(query: BoundQuery) -> dict[str, _TableRoles]:
    """Collect per-table column roles (merging aliases of one table)."""
    classified = classify_all(query.quals)
    roles: dict[str, _TableRoles] = {}
    alias_to_table = {entry.alias: entry.table.name for entry in query.rels}

    def table_roles(table: str) -> _TableRoles:
        if table not in roles:
            roles[table] = _TableRoles([], [], [], [], [])
        return roles[table]

    def note(bucket: list[str], column: str) -> None:
        if column not in bucket:
            bucket.append(column)

    for clause in classified:
        if clause.index_clause is not None:
            table = alias_to_table[clause.index_clause.alias]
            ic = clause.index_clause
            if ic.op in ("=", "in"):
                note(table_roles(table).eq, ic.column)
            else:
                note(table_roles(table).range_, ic.column)
        elif clause.equi_join is not None:
            for alias, column in clause.equi_join:
                note(table_roles(alias_to_table[alias]).join, column)

    stmt = query.statement
    for key in stmt.group_by:
        if isinstance(key, ColumnRef) and key.table in alias_to_table:
            note(table_roles(alias_to_table[key.table]).order, key.column)
    for item in stmt.order_by:
        expr = item.expr
        if isinstance(expr, ColumnRef) and expr.table in alias_to_table:
            note(table_roles(alias_to_table[expr.table]).order, expr.column)

    for alias, columns in query.required_columns.items():
        table = alias_to_table[alias]
        for column in sorted(columns):
            note(table_roles(table).referenced, column)
    return roles


def _candidates_for_roles(roles: _TableRoles) -> list[tuple[str, ...]]:
    """Column sequences worth considering for one query/table."""
    out: list[tuple[str, ...]] = []

    def add(columns: tuple[str, ...]) -> None:
        if columns and len(set(columns)) == len(columns) and columns not in out:
            out.append(columns)

    selective = roles.eq + roles.range_ + roles.join + roles.order
    for column in selective:
        add((column,))

    # Equality prefixes (any order of up to two equality columns) with an
    # optional trailing range column — the canonical B-Tree composite.
    for r in (1, 2):
        for eq_combo in itertools.permutations(roles.eq, r):
            add(tuple(eq_combo))
            for range_col in roles.range_:
                add(tuple(eq_combo) + (range_col,))
    for eq_col in roles.eq:
        for join_col in roles.join:
            add((eq_col, join_col))
    for join_col in roles.join:
        for range_col in roles.range_:
            add((join_col, range_col))
        for order_col in roles.order:
            add((join_col, order_col))
    for range_col in roles.range_:
        for order_col in roles.order:
            add((range_col, order_col))

    # Covering candidate: selective columns first, remaining referenced
    # columns appended — enables index-only scans.
    if roles.referenced and len(roles.referenced) <= MAX_COVERING_WIDTH:
        lead = [c for c in selective if c in roles.referenced]
        rest = [c for c in roles.referenced if c not in lead]
        covering = tuple(lead + rest)
        if len(covering) >= 1:
            add(covering)
    return out


def generate_candidates(
    catalog: Catalog,
    workload: Workload,
    max_per_table: int = 40,
    single_column_only: bool = False,
    bound: Mapping[str, BoundQuery] | None = None,
    cost_cache: "CostCache | None" = None,
) -> list[CandidateIndex]:
    """All deduplicated candidates for ``workload``: key candidates of
    up to three columns (two equality columns and a range column), and
    covering ones of up to :data:`MAX_COVERING_WIDTH`.

    Args:
        max_per_table: Cap per table (kept in generation order, which
            puts single-column and equality-led candidates first).
        single_column_only: Restrict to one key column (the COLT-style
            baseline of experiment E8).
        bound: Already-bound workload queries keyed by name; avoids
            re-parsing when the advisor has bound the workload anyway.
        cost_cache: Shared cache for Equation-1 sizes (candidate sizing
            repeats the same (table, columns) computation the INUM
            models do).
    """
    if not len(workload):
        raise AdvisorError("cannot generate candidates for an empty workload")

    sequences: dict[str, list[tuple[str, ...]]] = {}
    for query in workload:
        if bound is not None and query.name in bound:
            bound_query = bound[query.name]
        else:
            bound_query = query.bind(catalog)
        for table, roles in _roles_for_query(bound_query).items():
            per_table = sequences.setdefault(table, [])
            for columns in _candidates_for_roles(roles):
                if single_column_only:
                    columns = columns[:1]
                if columns not in per_table:
                    per_table.append(columns)

    candidates: list[CandidateIndex] = []
    counter = 0
    for table_name in sorted(sequences):
        table = catalog.table(table_name)
        stats = catalog.statistics(table_name)
        kept = sequences[table_name][:max_per_table]
        indexes = []
        for columns in kept:
            counter += 1
            indexes.append(
                Index(
                    name=f"cand_{counter}_{table_name}_{'_'.join(columns)}",
                    table_name=table_name,
                    columns=columns,
                    hypothetical=True,
                )
            )
        # One vectorized Equation-1 evaluation sizes the whole table's
        # candidate set (bit-identical to per-index sizing).
        if cost_cache is not None:
            sizes = cost_cache.index_pages_batch(
                catalog, table, indexes, stats.table.row_count, stats.columns
            )
        else:
            sizes = estimate_index_pages_batch(
                table, kept, stats.table.row_count, stats.columns
            ).tolist()
        candidates.extend(
            CandidateIndex(index=index, size_pages=int(size))
            for index, size in zip(indexes, sizes)
        )
    return candidates


def prune_dominated(
    candidates: Sequence[CandidateIndex],
    savings: np.ndarray,
    maintenance: Sequence[float],
) -> list[int]:
    """Positions of candidates that survive dominance pruning.

    Candidate ``j`` is dropped when some *same-table* candidate ``i``
    is pointwise at least as good on every query's benefit
    (``savings[:, i] >= savings[:, j]``), no larger
    (``size_pages[i] <= size_pages[j]``), and no costlier to maintain —
    with at least one strict inequality, or ``i < j`` as the
    deterministic tie-break for exact duplicates. Any solution using
    ``j`` can then swap in ``i`` without losing objective or violating
    the budget, so pruning never changes the optimum.

    Restricting the comparison to one table is what keeps the swap
    argument sound: the ILP's atomic-configuration constraint says a
    query uses at most one access path *per table*, so replacing ``j``
    with a same-table ``i`` reuses ``j``'s slot, while a cross-table
    ``i`` might already occupy its own table's slot in the query.

    ``savings`` is the dense (queries × candidates) benefit array with
    sub-threshold entries already clipped to zero, so this function and
    the advisor's solve path agree on what counts as benefit.
    """
    n = len(candidates)
    if savings.shape[1] != n or len(maintenance) != n:
        raise AdvisorError("savings/maintenance shape does not match candidates")
    maint = np.asarray(maintenance, dtype=float)
    sizes = np.array([c.size_pages for c in candidates], dtype=float)

    by_table: dict[str, list[int]] = {}
    for position, candidate in enumerate(candidates):
        by_table.setdefault(candidate.index.table_name, []).append(position)

    # Domination is transitive and never mutual, so a candidate is
    # dropped exactly when some same-table candidate dominates it: a
    # dominator that is itself dominated hands the relation on to one
    # that is not. Per table, [i, j] says "i dominates j".
    dominated = np.zeros(n, dtype=bool)
    for positions in by_table.values():
        block = savings[:, positions]
        size, upkeep = sizes[positions], maint[positions]
        no_worse = (
            (block[:, :, None] >= block[:, None, :]).all(axis=0)
            & (size[:, None] <= size[None, :])
            & (upkeep[:, None] <= upkeep[None, :])
        )
        better = (
            (block[:, :, None] > block[:, None, :]).any(axis=0)
            | (size[:, None] < size[None, :])
            | (upkeep[:, None] < upkeep[None, :])
        )
        order = np.arange(len(positions))
        earlier = order[:, None] < order[None, :]
        dominated[positions] = (no_worse & (better | earlier)).any(axis=0)
    return [p for p in range(n) if not dominated[p]]
