"""Access-path generation for base relations.

For every FROM-clause relation the planner builds: a sequential scan, a
(possibly index-only) index scan per matching index, and parameterized
index scans usable as the inner side of a nested loop (join clause bound
to the index's key). Index matching follows B-Tree rules: matched
clauses must cover a *prefix* of the key — equalities can keep the
prefix growing, and a single range/IN/LIKE-prefix clause terminates it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.sizing import column_width
from repro.optimizer.clauses import (
    ClassifiedClause,
    IndexClause,
    prefix_upper_bound,
)
from repro.optimizer.config import IndexInfo, PlannerConfig, RelationInfo
from repro.optimizer.cost import clamp_rows, cost_index_scan, cost_seqscan
from repro.optimizer.selectivity import (
    clamp,
    eq_selectivity,
    ineq_selectivity,
    range_selectivity,
    restriction_selectivity,
)
from repro.optimizer.plans import IndexScan, Plan, SeqScan
from repro.sql.ast_nodes import ColumnRef, Expr


@dataclass(frozen=True)
class BaseRel:
    """Planner bookkeeping for one FROM-clause relation."""

    alias: str
    info: RelationInfo
    restrictions: tuple[ClassifiedClause, ...]
    required_columns: frozenset[str]
    rows: float  # after applying all restrictions
    width: int

    @property
    def table_name(self) -> str:
        return self.info.table.name


def build_base_rel(
    config: PlannerConfig,
    alias: str,
    info: RelationInfo,
    restrictions: list[ClassifiedClause],
    required_columns: frozenset[str],
) -> BaseRel:
    sel = 1.0
    for clause in restrictions:
        sel *= restriction_selectivity(info, clause.expr)
    rows = clamp_rows(info.row_count * clamp(sel))
    width = sum(
        column_width(info.table.column(c).dtype, info.stats_for(c))
        for c in sorted(required_columns)
        if info.table.has_column(c)
    )
    return BaseRel(
        alias=alias,
        info=info,
        restrictions=tuple(restrictions),
        required_columns=required_columns,
        rows=rows,
        width=max(1, width),
    )


def seqscan_path(config: PlannerConfig, rel: BaseRel) -> SeqScan:
    quals = tuple(c.expr for c in rel.restrictions)
    startup, total = cost_seqscan(config, rel.info, qual_count=len(quals))
    return SeqScan(
        startup_cost=startup,
        total_cost=total,
        rows=rel.rows,
        width=rel.width,
        alias=rel.alias,
        table_name=rel.table_name,
        filter_quals=quals,
    )


@dataclass(frozen=True)
class _IndexMatch:
    """Result of matching restriction clauses against one index."""

    matched: tuple[ClassifiedClause, ...]
    index_selectivity: float
    # Number of operator evaluations per index tuple (for CPU costing).
    qual_ops: int


def match_index(
    index: IndexInfo,
    rel: BaseRel,
) -> _IndexMatch | None:
    """Match the relation's restrictions to a prefix of the index key."""
    by_column: dict[str, list[ClassifiedClause]] = {}
    for clause in rel.restrictions:
        if clause.index_clause is not None:
            by_column.setdefault(clause.index_clause.column, []).append(clause)

    matched: list[ClassifiedClause] = []
    selectivity = 1.0
    qual_ops = 0
    for column in index.columns:
        candidates = by_column.get(column, [])
        eq_clause = next(
            (c for c in candidates if c.index_clause.is_equality), None  # type: ignore[union-attr]
        )
        if eq_clause is not None:
            matched.append(eq_clause)
            selectivity *= _index_clause_selectivity(rel.info, eq_clause.index_clause)
            qual_ops += 1
            continue
        bounding = next(iter(candidates), None)
        if bounding is not None:
            matched.append(bounding)
            selectivity *= _index_clause_selectivity(rel.info, bounding.index_clause)
            qual_ops += 2 if bounding.index_clause.op == "between" else 1
        break
    if not matched:
        return None
    return _IndexMatch(
        matched=tuple(matched), index_selectivity=clamp(selectivity), qual_ops=qual_ops
    )


def _index_clause_selectivity(info: RelationInfo, clause: IndexClause) -> float:
    stats = info.stats_for(clause.column)
    if stats is None:
        return 0.005 if clause.op in ("=", "in") else 1.0 / 3.0
    if clause.op == "=":
        return eq_selectivity(stats, info.row_count, clause.values[0])
    if clause.op == "in":
        return clamp(
            sum(eq_selectivity(stats, info.row_count, v) for v in clause.values)
        )
    if clause.op == "between":
        return range_selectivity(stats, clause.values[0], clause.values[1])
    if clause.op == "like_prefix":
        prefix = str(clause.values[0])
        return range_selectivity(stats, prefix, prefix_upper_bound(prefix))
    return ineq_selectivity(stats, clause.op, clause.values[0])


def index_usable(rel: BaseRel, columns: tuple[str, ...]) -> bool:
    """True when a plain index scan on key ``columns`` serves ``rel``:
    some restriction is an index clause on the leading key column (so
    :func:`match_index` matches), or the key covers every column the
    query reads (an index-only scan)."""
    leading = columns[0]
    return rel.required_columns <= set(columns) or any(
        c.index_clause is not None and c.index_clause.column == leading
        for c in rel.restrictions
    )


def parameterized_usable(
    rel: BaseRel, columns: tuple[str, ...], join_columns: frozenset[str]
) -> bool:
    """True when an index on key ``columns`` gives ``rel`` a
    parameterized scan: the first key column without a local equality
    restriction is one of ``join_columns``, the relation's equi-join
    columns (see :func:`_parameterized_path_for_index`)."""
    equal = {
        c.index_clause.column
        for c in rel.restrictions
        if c.index_clause is not None and c.index_clause.is_equality
    }
    for column in columns:
        if column not in equal:
            return column in join_columns
    return False


def index_serves(
    rel: BaseRel, columns: tuple[str, ...], join_columns: frozenset[str]
) -> bool:
    """True when an index on key ``columns`` gives ``rel`` any access
    path, plain or parameterized. An index it rejects adds nothing to
    :func:`index_paths` or :func:`parameterized_index_paths`, so the
    join search, and the plan, are the same with or without it."""
    return index_usable(rel, columns) or parameterized_usable(
        rel, columns, join_columns
    )


def equi_join_columns(
    alias: str, join_clauses: list[ClassifiedClause]
) -> frozenset[str]:
    """The columns of ``alias`` that an equi-join clause binds."""
    columns = set()
    for clause in join_clauses:
        if clause.equi_join is None:
            continue
        for side_alias, column in clause.equi_join:
            if side_alias == alias:
                columns.add(column)
    return frozenset(columns)


def index_paths(config: PlannerConfig, rel: BaseRel) -> list[IndexScan]:
    """All useful plain (unparameterized) index scans for ``rel``: one
    per index :func:`index_usable` accepts."""
    paths: list[IndexScan] = []
    for index in rel.info.indexes:
        if not index_usable(rel, index.columns):
            continue
        match = match_index(index, rel)
        index_only_possible = rel.required_columns <= set(index.columns)
        matched = match.matched if match is not None else ()
        index_sel = match.index_selectivity if match is not None else 1.0
        qual_ops = match.qual_ops if match is not None else 0

        matched_set = set(matched)
        filter_clauses = tuple(
            c.expr for c in rel.restrictions if c not in matched_set
        )
        heap_sel = index_sel
        correlation = (
            _leading_correlation(rel.info, index) if config.use_correlation else 0.0
        )
        # A single-probe scan delivers index-key order; IN expands to
        # several probes whose concatenation is not globally ordered.
        single_probe = all(
            c.index_clause is None or c.index_clause.op != "in" for c in matched
        )
        out_order = (
            tuple((rel.alias, col) for col in index.columns) if single_probe else ()
        )
        startup, total = cost_index_scan(
            config,
            rel.info,
            index,
            index_selectivity=index_sel,
            heap_selectivity=heap_sel,
            index_qual_ops=qual_ops,
            filter_qual_ops=len(filter_clauses),
            index_only=index_only_possible,
            correlation=correlation,
        )
        paths.append(
            IndexScan(
                startup_cost=startup,
                total_cost=total,
                rows=rel.rows,
                width=rel.width,
                out_order=out_order,
                alias=rel.alias,
                table_name=rel.table_name,
                filter_quals=filter_clauses,
                index_name=index.name,
                index_columns=index.columns,
                index_quals=tuple(c.expr for c in matched),
                index_only=index_only_possible,
                rescan_cost=total,
                hypothetical=index.definition.hypothetical,
            )
        )
    return paths


def parameterized_index_paths(
    config: PlannerConfig,
    rel: BaseRel,
    join_clauses: list[ClassifiedClause],
) -> list[IndexScan]:
    """Index scans usable as a nested-loop inner for ``rel``.

    For every index whose key prefix can be filled by local equality
    restrictions plus at least one equi-join column, build a scan whose
    ``ref_quals`` bind the join column to the outer side's expression.
    """
    local_eq: dict[str, ClassifiedClause] = {}
    for clause in rel.restrictions:
        ic = clause.index_clause
        if ic is not None and ic.is_equality:
            local_eq.setdefault(ic.column, clause)

    join_by_column: dict[str, list[tuple[ClassifiedClause, str, Expr]]] = {}
    for clause in join_clauses:
        if clause.equi_join is None:
            continue
        (alias_a, col_a), (alias_b, col_b) = clause.equi_join
        if alias_a == rel.alias:
            inner_col, outer_alias, outer_expr = (
                col_a,
                alias_b,
                ColumnRef(column=col_b, table=alias_b),
            )
        elif alias_b == rel.alias:
            inner_col, outer_alias, outer_expr = (
                col_b,
                alias_a,
                ColumnRef(column=col_a, table=alias_a),
            )
        else:
            continue
        join_by_column.setdefault(inner_col, []).append(
            (clause, outer_alias, outer_expr)
        )

    join_columns = frozenset(join_by_column)
    paths: list[IndexScan] = []
    for index in rel.info.indexes:
        if not parameterized_usable(rel, index.columns, join_columns):
            continue
        path = _parameterized_path_for_index(
            config, rel, index, local_eq, join_by_column
        )
        if path is not None:
            paths.append(path)
    return paths


def _parameterized_path_for_index(
    config: PlannerConfig,
    rel: BaseRel,
    index: IndexInfo,
    local_eq: dict[str, "ClassifiedClause"],
    join_by_column: dict[str, list[tuple[ClassifiedClause, str, Expr]]],
) -> IndexScan | None:
    matched_local: list[ClassifiedClause] = []
    ref_quals: list[tuple[str, Expr]] = []
    consumed_joins: list[ClassifiedClause] = []
    param_rels: set[str] = set()
    selectivity = 1.0
    qual_ops = 0
    used_join = False

    for column in index.columns:
        if column in local_eq:
            clause = local_eq[column]
            matched_local.append(clause)
            selectivity *= _index_clause_selectivity(rel.info, clause.index_clause)
            qual_ops += 1
            continue
        if column in join_by_column:
            clause, outer_alias, outer_expr = join_by_column[column][0]
            ref_quals.append((column, outer_expr))
            consumed_joins.append(clause)
            param_rels.add(outer_alias)
            stats = rel.info.stats_for(column)
            distinct = (
                stats.distinct_values(rel.info.row_count) if stats is not None else 200.0
            )
            selectivity *= 1.0 / max(1.0, distinct)
            qual_ops += 1
            used_join = True
            continue
        break
    if not used_join:
        return None

    index_sel = clamp(selectivity)
    matched_set = set(matched_local)
    filter_clauses = tuple(
        c.expr for c in rel.restrictions if c not in matched_set
    )
    correlation = (
        _leading_correlation(rel.info, index) if config.use_correlation else 0.0
    )
    index_only = rel.required_columns <= set(index.columns)
    startup, total = cost_index_scan(
        config,
        rel.info,
        index,
        index_selectivity=index_sel,
        heap_selectivity=index_sel,
        index_qual_ops=qual_ops,
        filter_qual_ops=len(filter_clauses),
        index_only=index_only,
        correlation=correlation,
        loop_count=1.0,
    )
    # Rescan cost: repeated probes benefit from caching; approximate with
    # the same formula at a representative loop count.
    _, rescan_total = cost_index_scan(
        config,
        rel.info,
        index,
        index_selectivity=index_sel,
        heap_selectivity=index_sel,
        index_qual_ops=qual_ops,
        filter_qual_ops=len(filter_clauses),
        index_only=index_only,
        correlation=correlation,
        loop_count=100.0,
    )
    # Rows produced per rescan: local restrictions that were *not* part
    # of the index match still filter.
    residual_sel = 1.0
    for clause in rel.restrictions:
        if clause not in matched_set:
            residual_sel *= restriction_selectivity(rel.info, clause.expr)
    rows_per_rescan = clamp_rows(rel.info.row_count * index_sel * clamp(residual_sel))

    return IndexScan(
        startup_cost=startup,
        total_cost=total,
        rows=rows_per_rescan,
        width=rel.width,
        alias=rel.alias,
        table_name=rel.table_name,
        filter_quals=filter_clauses,
        index_name=index.name,
        index_columns=index.columns,
        index_quals=tuple(c.expr for c in matched_local),
        ref_quals=tuple(ref_quals),
        index_only=index_only,
        param_rels=frozenset(param_rels),
        rescan_cost=rescan_total,
        hypothetical=index.definition.hypothetical,
    )


def _leading_correlation(info: RelationInfo, index: IndexInfo) -> float:
    stats = info.stats_for(index.columns[0])
    if stats is None:
        return 0.0
    if len(index.columns) > 1:
        # Multicolumn ordering weakens the heap correlation of suffix
        # lookups; PG uses leading-column correlation scaled down.
        return stats.correlation * 0.75
    return stats.correlation


def cheapest(paths: list[Plan]) -> Plan:
    return min(paths, key=lambda p: p.total_cost)
