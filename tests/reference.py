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

Then :func:`legacy_dump_state` / :func:`legacy_load_verified`: the
``repro-state-v1`` envelope as it was written and verified before the
canonical text became the envelope body, the oracle for
``test_store.py``.

Last, :func:`highs_solve`: HiGHS through ``scipy.optimize.milp``, the
oracle the built-in branch and bound is checked against, and
:class:`HighsSolver`, which stands in for ``BranchAndBoundSolver`` to
run a whole advise on it.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Iterator

from repro.catalog.schema import Index, Table
from repro.catalog.sizing import (
    BLOCK_SIZE,
    BTREE_LEAF_FILLFACTOR,
    INDEX_ROW_OVERHEAD,
    PAGE_HEADER_SIZE,
    aligned_row_width,
)
from repro.executor.aggregates import AggregateAccumulator
from repro.ilp.model import LinearProgram
from repro.ilp.solution import MilpSolution
from repro.sql.ast_nodes import FuncCall
from repro.sql.binder import BoundQuery
from repro.sql.expressions import evaluate, is_true
from repro.storage.database import Database
from repro.storage.heap import HeapFile


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
