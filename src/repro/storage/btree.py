"""A real B-Tree index with page-accurate leaf sizing.

Built bulk-load style (sort + pack leaves at a fill factor), like
PostgreSQL's CREATE INDEX. The leaf page count of a built tree is the
ground truth against which the paper's Equation 1 estimate is validated
(experiment E7), and range scans over the tree drive the executor's
index-scan operator.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Iterator, Sequence

import numpy as np

from repro.catalog.schema import Index, Table
from repro.catalog.sizing import (
    BLOCK_SIZE,
    BTREE_LEAF_FILLFACTOR,
    INDEX_ROW_OVERHEAD,
    PAGE_HEADER_SIZE,
    aligned_row_width,
)
from repro.errors import ExecutorError
from repro.resilience import faults
from repro.storage.heap import HeapFile


def _rank(value: Any) -> tuple[int, Any]:
    """One key part in index order: values, then NaN, then NULL.

    PostgreSQL's float order under the default NULLS LAST. NaN and NULL
    carry a constant, so rows tied on them fall through to the next key
    column and then to row-id order.
    """
    if value is None:
        return (2, 0)
    if value != value:
        return (1, 0)
    return (0, value)


def _numeric_arrays(columns: Sequence[Sequence[Any]]) -> list[np.ndarray] | None:
    """Every column as a numpy array, or None when one would lose data.

    A NULL or a string disqualifies the key before anything is copied.
    Ints and bools are exact in an integer array; a float array is exact
    only when every value was a float already (an int beyond 2**53 would
    round, one beyond 64 bits comes back as an object).
    """
    arrays = []
    for column in columns:
        types = set(map(type, column))
        if not types <= {bool, int, float}:
            return None
        array = np.asarray(column)
        if array.dtype.kind not in "biu" and types - {float}:
            return None
        arrays.append(array)
    return arrays


class BTreeIndex:
    """A bulk-loaded B-Tree over one or more columns of a heap file.

    Stored as parallel arrays in key order: the row ids and one list
    per key column. Which sort builds them is decided by the column
    data alone (``build_path`` records it): one stable ``np.lexsort``
    when the key is NULL-free and numeric, otherwise a stable sort on
    ``_rank``-decorated tuples. Both order NaN after every number and
    NULL after NaN, with ties in row-id order.
    """

    def __init__(
        self,
        definition: Index,
        table: Table,
        heap: HeapFile,
        fillfactor: float = BTREE_LEAF_FILLFACTOR,
    ) -> None:
        if definition.hypothetical:
            raise ExecutorError(
                f"cannot materialize hypothetical index {definition.name!r}"
            )
        self.definition = definition
        self._fillfactor = fillfactor

        # Storage-layer fault surface: the build slot itself, then one
        # page.read per key column pulled off the heap. With no injector
        # active both checks are no-ops; an injected fault aborts the
        # build before anything is published (see Database.create_index).
        faults.check("index.build", definition.name)
        columns = []
        for name in definition.columns:
            faults.check("page.read", f"{table.name}.{name}")
            columns.append(heap.column(name))
        rows = heap.row_count

        # Per position, the first key column holding a NULL; None when no
        # key has one (always so on the numpy path) and scans skip the test.
        self._null_depth: list[int] | None = None
        arrays = _numeric_arrays(columns)
        if arrays is not None:
            self.build_path = "numpy"
            order = np.lexsort(arrays[::-1])  # the primary key goes last
            self._row_ids: list[int] = order.tolist()
            self._columns = [array[order].tolist() for array in arrays]
        else:
            self.build_path = "tuples"
            keys = list(zip(*(map(_rank, column) for column in columns)))
            self._row_ids = sorted(range(rows), key=keys.__getitem__)
            self._columns = [[col[i] for i in self._row_ids] for col in columns]
            for depth in reversed(range(len(columns))):
                if None in self._columns[depth]:
                    deeper = self._null_depth or [len(columns)] * rows
                    self._null_depth = [
                        depth if value is None else other
                        for value, other in zip(self._columns[depth], deeper)
                    ]

        self._entry_width = self._compute_entry_width(table, definition, columns)
        self._leaf_page_count = self._compute_leaf_pages(rows)
        self._height = self._compute_height(rows)
        self._entries_per_page = max(1, math.ceil(rows / self._leaf_page_count))

    # ------------------------------------------------------------------
    # Page accounting

    @staticmethod
    def _compute_entry_width(
        table: Table, definition: Index, columns: Sequence[Sequence[Any]]
    ) -> int:
        widths_and_aligns: list[tuple[int, int]] = []
        for name, column in zip(definition.columns, columns):
            dtype = table.column(name).dtype
            if dtype.typlen is not None:
                avg = dtype.typlen
            else:
                total = count = 0
                for value in column:
                    if value is not None:
                        total += dtype.value_width(value)
                        count += 1
                avg = max(1, round(total / count)) if count else dtype.default_width
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

    @property
    def entry_count(self) -> int:
        return len(self._row_ids)

    def leaf_page_of_position(self, position: int) -> int:
        """Which leaf page holds the entry at sorted ``position``."""
        if not self._row_ids:
            return 0
        return position // self._entries_per_page

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
        range (SQL comparisons with NULL are unknown), and NaN sorts
        above every finite upper bound.
        """
        start, end = 0, len(self._row_ids)
        bound_len = 0
        if low is not None:
            first, past = self._equal_range(low)
            start = first if low_inclusive else past
            bound_len = len(low)
        if high is not None:
            first, past = self._equal_range(high)
            end = past if high_inclusive else first
            bound_len = max(bound_len, len(high))

        row_ids, per_page = self._row_ids, self._entries_per_page
        null_depth = self._null_depth
        for position in range(start, end):
            if null_depth is not None and null_depth[position] < bound_len:
                continue
            yield row_ids[position], position // per_page

    def scan_all(self) -> Iterator[tuple[int, int]]:
        """Full index scan in key order (NaN keys, then NULL keys, last)."""
        per_page = self._entries_per_page
        for position, row_id in enumerate(self._row_ids):
            yield row_id, position // per_page

    def _equal_range(self, prefix: tuple[Any, ...]) -> tuple[int, int]:
        """Positions ``[first, past)`` of the keys that start with ``prefix``.

        Column by column: inside the run that matched the earlier parts
        the next key column is sorted, so two bisects narrow it. Keys
        before ``first`` sort below the prefix and keys from ``past`` on
        above it whatever their suffix, which is what a prefix bound
        padded with -inf / +inf would find.
        """
        first, past = 0, len(self._row_ids)
        for column, value in zip(self._columns, prefix):
            part = _rank(value)
            first = bisect.bisect_left(column, part, first, past, key=_rank)
            past = bisect.bisect_right(column, part, first, past, key=_rank)
        return first, past

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BTreeIndex({self.definition.name!r}, entries={self.entry_count}, "
            f"leaves={self.leaf_page_count})"
        )
