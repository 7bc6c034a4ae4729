"""Plan execution with page-level I/O accounting.

Rows flow through the operator tree as *contexts*: dictionaries keyed by
``(alias, column)`` below aggregation, augmented with expression-keyed
entries above it (so ORDER BY over aggregate outputs can resolve). The
:class:`ExecutionStats` counter tracks heap and index page reads — a
sequential scan charges every heap page once, an index scan charges leaf
pages plus one heap page per fetched row *unless* the row lands on the
page read immediately before (which is how clustered/correlated access
gets its discount in reality).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ExecutorError
from repro.executor.aggregates import AggregateAccumulator
from repro.resilience import faults
from repro.optimizer.clauses import extract_index_clause, prefix_upper_bound
from repro.optimizer.plans import (
    Aggregate,
    HashJoin,
    IndexScan,
    Limit,
    MergeJoin,
    NestLoop,
    Plan,
    Project,
    SeqScan,
    Sort,
)
from repro.sql.ast_nodes import ColumnRef, Expr, FuncCall, SelectItem
from repro.sql.expressions import evaluate, is_true
from repro.sql.printer import expr_to_sql
from repro.storage.database import Database

Row = dict[Any, Any]


class _PageCache:
    """A small LRU buffer cache shared by one execution.

    Page reads that hit the cache are free, as they would be against a
    real buffer pool — without this, a clustered-but-jittered index scan
    (heap pages A,B,A,B,...) would be charged one fault per row and
    look worse than a sequential scan even when it touches 10x fewer
    distinct pages.
    """

    __slots__ = ("_capacity", "_pages")

    def __init__(self, capacity: int = 256) -> None:
        self._capacity = capacity
        self._pages: dict[tuple, None] = {}

    def access(self, key: tuple) -> bool:
        """Touch a page; returns True when the access faults (a read)."""
        if key in self._pages:
            self._pages.pop(key)  # move to MRU position
            self._pages[key] = None
            return False
        self._pages[key] = None
        if len(self._pages) > self._capacity:
            oldest = next(iter(self._pages))
            self._pages.pop(oldest)
        return True


@dataclass
class ExecutionStats:
    """I/O and row counters accumulated during one execution.

    ``injector`` is the injector active for this execution (``execute``
    reads :func:`repro.resilience.faults.current` once up front); when
    set, every heap page *fault* — an access the page cache does not
    absorb — passes through the ``page.read`` fault point, the storage
    failure surface of real scans.
    """

    heap_pages_read: int = 0
    index_pages_read: int = 0
    rows_scanned: int = 0
    rows_output: int = 0
    index_probes: int = 0
    cache: _PageCache = field(default_factory=_PageCache)
    injector: Any = None

    def read_heap_page(self, table: str, page: int) -> None:
        if self.cache.access(("heap", table, page)):
            if self.injector is not None:
                self.injector.check("page.read", f"{table}:{page}")
            self.heap_pages_read += 1

    def read_index_page(self, index: str, page: int) -> None:
        if self.cache.access(("index", index, page)):
            self.index_pages_read += 1

    @property
    def total_pages_read(self) -> int:
        return self.heap_pages_read + self.index_pages_read


@dataclass
class ExecutionResult:
    """Rows plus metadata from executing a plan."""

    columns: list[str]
    rows: list[tuple]
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutorError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list:
        """Values of one output column, by exact name or bare-column name."""
        if name in self.columns:
            idx = self.columns.index(name)
        else:
            matches = [
                i for i, c in enumerate(self.columns) if c.endswith(f".{name}")
            ]
            if len(matches) != 1:
                raise ExecutorError(
                    f"column {name!r} not found (have: {self.columns})"
                )
            idx = matches[0]
        return [row[idx] for row in self.rows]


def execute(db: Database, plan: Plan) -> ExecutionResult:
    """Run ``plan`` against ``db`` and collect its output rows.

    The active fault injector is read once here and carried on the
    stats object, so the per-page hot path pays a plain attribute
    check when no injector is active.
    """
    stats = ExecutionStats(injector=faults.current())
    rows = list(_run(db, plan, stats))
    output = _output_items(plan)
    if output is None:
        raise ExecutorError("plan has no projection/aggregation root")
    columns = [item.alias or expr_to_sql(item.expr) for item in output]
    tuples = []
    for row in rows:
        tuples.append(tuple(_resolve_output(item.expr, row) for item in output))
    stats.rows_output = len(tuples)
    return ExecutionResult(columns=columns, rows=tuples, stats=stats)


def _output_items(plan: Plan) -> tuple[SelectItem, ...] | None:
    if isinstance(plan, (Project, Aggregate)):
        return plan.output
    for child in plan.children():
        found = _output_items(child)
        if found is not None:
            return found
    return None


def _resolve_output(expr: Expr, row: Row) -> Any:
    if expr in row:
        return row[expr]
    return evaluate(expr, row)


# ----------------------------------------------------------------------
# Operator dispatch


def _run(db: Database, plan: Plan, stats: ExecutionStats) -> Iterator[Row]:
    if isinstance(plan, SeqScan):
        return _run_seqscan(db, plan, stats)
    if isinstance(plan, IndexScan):
        return _run_indexscan(db, plan, stats, bindings=None)
    if isinstance(plan, NestLoop):
        return _run_nestloop(db, plan, stats)
    if isinstance(plan, HashJoin):
        return _run_hashjoin(db, plan, stats)
    if isinstance(plan, MergeJoin):
        return _run_mergejoin(db, plan, stats)
    if isinstance(plan, Sort):
        return _run_sort(db, plan, stats)
    if isinstance(plan, Aggregate):
        return _run_aggregate(db, plan, stats)
    if isinstance(plan, Project):
        return _run_project(db, plan, stats)
    if isinstance(plan, Limit):
        return _run_limit(db, plan, stats)
    raise ExecutorError(f"no executor for node {plan.node_name}")


def _run_seqscan(db: Database, plan: SeqScan, stats: ExecutionStats) -> Iterator[Row]:
    relation = db.relation(plan.table_name)
    heap = relation.heap
    names = relation.table.column_names
    columns = {name: heap.column(name) for name in names}
    alias = plan.alias
    if heap.row_count == 0:
        stats.read_heap_page(plan.table_name, 0)
    for row_idx in heap.scan():
        stats.read_heap_page(plan.table_name, heap.page_of(row_idx))
        stats.rows_scanned += 1
        row: Row = {(alias, name): columns[name][row_idx] for name in names}
        if all(is_true(evaluate(q, row)) for q in plan.filter_quals):
            yield row


def _run_indexscan(
    db: Database,
    plan: IndexScan,
    stats: ExecutionStats,
    bindings: Row | None,
) -> Iterator[Row]:
    if plan.hypothetical:
        raise ExecutorError(
            f"hypothetical index {plan.index_name!r} cannot be executed; "
            "what-if designs are simulation-only"
        )
    btree = db.btree(plan.index_name)
    relation = db.relation(plan.table_name)
    heap = relation.heap
    alias = plan.alias
    names = relation.table.column_names
    columns = {name: heap.column(name) for name in names}

    probes = _index_probes(plan, bindings)
    stats.index_probes += len(probes)
    for low, high, low_inc, high_inc in probes:
        for row_id, leaf_page in btree.search_range(low, high, low_inc, high_inc):
            stats.read_index_page(plan.index_name, leaf_page)
            stats.rows_scanned += 1
            if plan.index_only:
                row = {
                    (alias, col): columns[col][row_id] for col in plan.index_columns
                }
            else:
                stats.read_heap_page(plan.table_name, heap.page_of(row_id))
                row = {(alias, name): columns[name][row_id] for name in names}
            if bindings is not None:
                row = {**bindings, **row}
            if all(is_true(evaluate(q, row)) for q in plan.index_quals):
                if all(is_true(evaluate(q, row)) for q in plan.filter_quals):
                    yield row


def _index_probes(
    plan: IndexScan, bindings: Row | None
) -> list[tuple[tuple | None, tuple | None, bool, bool]]:
    """Derive B-Tree probe ranges from index (and parameterized) quals.

    Returns a list of (low, high, low_inclusive, high_inclusive) probes
    over key prefixes; IN clauses expand into one probe per value.
    """
    eq_by_column: dict[str, Any] = {}
    terminal: tuple[str, str, tuple] | None = None  # (column, op, values)

    for expr in plan.index_quals:
        clause = extract_index_clause(expr, plan.alias)
        if clause is None:
            continue  # safety: treated as filter by the executor anyway
        if clause.op == "=":
            eq_by_column[clause.column] = clause.values[0]
        else:
            terminal = (clause.column, clause.op, clause.values)

    for column, outer_expr in plan.ref_quals:
        if bindings is None:
            raise ExecutorError(
                f"parameterized scan on {plan.index_name!r} executed without "
                "outer bindings"
            )
        eq_by_column[column] = evaluate(outer_expr, bindings)

    prefix: list[Any] = []
    for column in plan.index_columns:
        if column in eq_by_column:
            prefix.append(eq_by_column[column])
            continue
        if terminal is not None and terminal[0] == column:
            return _terminal_probes(tuple(prefix), terminal)
        break
    if not prefix and terminal is None:
        return [(None, None, True, True)]  # full index scan
    key = tuple(prefix)
    return [(key, key, True, True)]


def _terminal_probes(
    prefix: tuple, terminal: tuple[str, str, tuple]
) -> list[tuple[tuple | None, tuple | None, bool, bool]]:
    _column, op, values = terminal
    if op == "between":
        return [(prefix + (values[0],), prefix + (values[1],), True, True)]
    if op == "in":
        return [(prefix + (v,), prefix + (v,), True, True) for v in values]
    if op == "like_prefix":
        prefix_value = str(values[0])
        return [
            (
                prefix + (prefix_value,),
                prefix + (prefix_upper_bound(prefix_value),),
                True,
                False,
            )
        ]
    value = values[0]
    if op == "<":
        return [(prefix if prefix else None, prefix + (value,), True, False)]
    if op == "<=":
        return [(prefix if prefix else None, prefix + (value,), True, True)]
    if op == ">":
        return [(prefix + (value,), prefix if prefix else None, False, True)]
    if op == ">=":
        return [(prefix + (value,), prefix if prefix else None, True, True)]
    raise ExecutorError(f"unsupported index operator {op!r}")


def _run_nestloop(db: Database, plan: NestLoop, stats: ExecutionStats) -> Iterator[Row]:
    inner = plan.inner
    parameterized = isinstance(inner, IndexScan) and inner.ref_quals
    outer_rows = _run(db, plan.outer, stats)
    if parameterized:
        for outer_row in outer_rows:
            for row in _run_indexscan(db, inner, stats, bindings=outer_row):
                merged = row  # bindings already merged inside the scan
                if all(is_true(evaluate(q, merged)) for q in plan.join_quals):
                    yield merged
    else:
        inner_materialized = list(_run(db, inner, stats))
        for outer_row in outer_rows:
            for inner_row in inner_materialized:
                merged = {**outer_row, **inner_row}
                if all(is_true(evaluate(q, merged)) for q in plan.join_quals):
                    yield merged


def _run_hashjoin(db: Database, plan: HashJoin, stats: ExecutionStats) -> Iterator[Row]:
    table: dict[tuple, list[Row]] = {}
    for inner_row in _run(db, plan.inner, stats):
        key = tuple(evaluate(k, inner_row) for _, k in plan.hash_keys)
        if any(v is None for v in key):
            continue  # NULL never joins
        table.setdefault(key, []).append(inner_row)
    for outer_row in _run(db, plan.outer, stats):
        key = tuple(evaluate(k, outer_row) for k, _ in plan.hash_keys)
        if any(v is None for v in key):
            continue
        for inner_row in table.get(key, ()):
            merged = {**outer_row, **inner_row}
            if all(is_true(evaluate(q, merged)) for q in plan.join_quals):
                yield merged


def _run_mergejoin(db: Database, plan: MergeJoin, stats: ExecutionStats) -> Iterator[Row]:
    outer_key_exprs = [a for a, _ in plan.merge_keys]
    inner_key_exprs = [b for _, b in plan.merge_keys]

    def key_of(row: Row, exprs: list[Expr]) -> tuple:
        return tuple(_sortable(evaluate(e, row)) for e in exprs)

    outer_rows = sorted(
        (r for r in _run(db, plan.outer, stats)),
        key=lambda r: key_of(r, outer_key_exprs),
    )
    inner_rows = sorted(
        (r for r in _run(db, plan.inner, stats)),
        key=lambda r: key_of(r, inner_key_exprs),
    )

    i = j = 0
    while i < len(outer_rows) and j < len(inner_rows):
        ko = key_of(outer_rows[i], outer_key_exprs)
        ki = key_of(inner_rows[j], inner_key_exprs)
        if any(part[0] == 1 for part in ko):  # NULL keys never join
            i += 1
            continue
        if any(part[0] == 1 for part in ki):
            j += 1
            continue
        if ko < ki:
            i += 1
        elif ko > ki:
            j += 1
        else:
            # Gather the duplicate blocks on both sides.
            i_end = i
            while i_end < len(outer_rows) and key_of(outer_rows[i_end], outer_key_exprs) == ko:
                i_end += 1
            j_end = j
            while j_end < len(inner_rows) and key_of(inner_rows[j_end], inner_key_exprs) == ki:
                j_end += 1
            for oi in range(i, i_end):
                for ji in range(j, j_end):
                    merged = {**outer_rows[oi], **inner_rows[ji]}
                    if all(is_true(evaluate(q, merged)) for q in plan.join_quals):
                        yield merged
            i, j = i_end, j_end


def _sortable(value: Any) -> tuple:
    """Totally ordered key part: (null_flag, value)."""
    if value is None:
        return (1, 0)
    if isinstance(value, bool):
        return (0, int(value))
    return (0, value)


def _run_sort(db: Database, plan: Sort, stats: ExecutionStats) -> Iterator[Row]:
    rows = list(_run(db, plan.child, stats))

    def sort_key(row: Row):
        parts = []
        for item in plan.sort_keys:
            value = _resolve_output(item.expr, row)
            null_flag, v = _sortable(value)
            if item.descending:
                parts.append((-null_flag, _Reversed(v)))
            else:
                parts.append((null_flag, v))
        return tuple(parts)

    rows.sort(key=sort_key)
    return iter(rows)


class _Reversed:
    """Inverts comparison order for DESC sort keys of any type."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


def _run_aggregate(db: Database, plan: Aggregate, stats: ExecutionStats) -> Iterator[Row]:
    agg_calls = _collect_aggregates(plan)
    groups: dict[tuple, tuple[Row, list[AggregateAccumulator]]] = {}
    ordered_keys: list[tuple] = []

    for row in _run(db, plan.child, stats):
        key = tuple(_sortable(evaluate(k, row)) for k in plan.group_keys)
        if key not in groups:
            groups[key] = (row, [AggregateAccumulator(c) for c in agg_calls])
            ordered_keys.append(key)
        for acc in groups[key][1]:
            acc.add(row)

    if not plan.group_keys and not groups:
        # Aggregate over empty input still yields one row (count=0 etc.).
        groups[()] = ({}, [AggregateAccumulator(c) for c in agg_calls])
        ordered_keys.append(())

    for key in ordered_keys:
        sample_row, accumulators = groups[key]
        agg_values = {
            call: acc.result() for call, acc in zip(agg_calls, accumulators)
        }
        out: Row = dict(sample_row)
        for call, value in agg_values.items():
            out[call] = value
        for item in plan.output:
            out[item.expr] = _eval_with_aggs(item.expr, sample_row, agg_values)
        if plan.having is not None:
            if not is_true(_eval_with_aggs(plan.having, sample_row, agg_values)):
                continue
        yield out


def _collect_aggregates(plan: Aggregate) -> list[FuncCall]:
    calls: list[FuncCall] = []
    seen: set[FuncCall] = set()
    roots: list[Expr] = [item.expr for item in plan.output]
    if plan.having is not None:
        roots.append(plan.having)
    for root in roots:
        for node in root.walk():
            if isinstance(node, FuncCall) and node.is_aggregate and node not in seen:
                seen.add(node)
                calls.append(node)
    return calls


def _eval_with_aggs(expr: Expr, row: Row, agg_values: dict[FuncCall, Any]) -> Any:
    """Evaluate an expression treating aggregate calls as constants."""
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return agg_values[expr]
    if isinstance(expr, ColumnRef):
        return evaluate(expr, row)
    from repro.sql.ast_nodes import BinaryOp, Literal, UnaryOp

    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, BinaryOp):
        left = _eval_with_aggs(expr.left, row, agg_values)
        right = _eval_with_aggs(expr.right, row, agg_values)
        return _apply_binary(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        value = _eval_with_aggs(expr.operand, row, agg_values)
        if value is None:
            return None
        return (not value) if expr.op == "not" else -value
    return evaluate(expr, row)


def _apply_binary(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    table = {
        "=": lambda a, b: a == b,
        "<>": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        "%": lambda a, b: a % b,
        "and": lambda a, b: a and b,
        "or": lambda a, b: a or b,
        "||": lambda a, b: str(a) + str(b),
    }
    try:
        return table[op](left, right)
    except KeyError:
        raise ExecutorError(f"unknown operator {op!r}") from None
    except ZeroDivisionError:
        raise ExecutorError("division by zero") from None


def _run_project(db: Database, plan: Project, stats: ExecutionStats) -> Iterator[Row]:
    seen: set[tuple] = set()
    for row in _run(db, plan.child, stats):
        out = dict(row)
        values = []
        for item in plan.output:
            value = evaluate(item.expr, row)
            out[item.expr] = value
            values.append(value)
        if plan.distinct:
            key = tuple(_sortable(v) for v in values)
            if key in seen:
                continue
            seen.add(key)
        yield out


def _run_limit(db: Database, plan: Limit, stats: ExecutionStats) -> Iterator[Row]:
    produced = 0
    for row in _run(db, plan.child, stats):
        if produced >= plan.count:
            return
        produced += 1
        yield row
