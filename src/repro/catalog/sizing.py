"""Size estimation: heap pages, tuple widths, and the paper's Equation 1.

Equation 1 of the PARINDA paper sizes a what-if index as::

    Pages = ceil( (o + sum_{c in I} (size(c) + align(c))) * R / B )

where ``o`` is the per-row overhead including the rowid pointer back to
the heap (24 bytes in PostgreSQL 8.3), ``size(c)`` the average width of
column ``c``, ``align(c)`` the padding required to align ``c`` given the
columns before it, ``R`` the table row count, and ``B`` the page size
(8192). Only leaf pages are counted; internal B-Tree pages are ignored,
as the paper argues they matter only for very small indexes.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.catalog.datatypes import DataType, align_up
from repro.catalog.schema import Index, Table
from repro.catalog.statistics import ColumnStats
from repro.errors import StatisticsError

# Page size B in Equation 1 (PostgreSQL's BLCKSZ).
BLOCK_SIZE = 8192
# Row overhead o in Equation 1: IndexTuple header + item pointer, aligned.
INDEX_ROW_OVERHEAD = 24
# Heap tuple header (23 bytes) MAXALIGN'd, plus the 4-byte line pointer.
HEAP_TUPLE_OVERHEAD = 24 + 4
# Per-page header and special space left unusable for tuples.
PAGE_HEADER_SIZE = 24
# Default fill factor for B-Tree leaf pages (PostgreSQL packs ~90%).
BTREE_LEAF_FILLFACTOR = 0.90


def column_width(dtype: DataType, stats: ColumnStats | None) -> int:
    """Average stored width of one column value.

    Fixed-length types use their ``typlen``; variable-length types use
    the ANALYZE-measured average width, falling back to the type's
    default when the column was never analyzed.
    """
    if dtype.typlen is not None:
        return dtype.typlen
    if stats is not None:
        return max(1, stats.avg_width)
    return dtype.default_width


def aligned_row_width(
    widths_and_aligns: list[tuple[int, int]], base_overhead: int
) -> int:
    """Total row width with per-column alignment padding.

    Walks the columns in order, padding the running offset to each
    column's alignment requirement — this is the ``align(c)`` term of
    Equation 1, which "depends on the columns appearing before the
    current column".
    """
    offset = base_overhead
    for width, alignment in widths_and_aligns:
        offset = align_up(offset, alignment)
        offset += width
    return align_up(offset, 8)


def index_row_width(
    table: Table,
    index: Index,
    column_stats: Mapping[str, ColumnStats] | None = None,
) -> int:
    """Width of one leaf entry of ``index``, including overhead ``o``."""
    widths_and_aligns: list[tuple[int, int]] = []
    for col_name in index.columns:
        column = table.column(col_name)
        stats = column_stats.get(col_name) if column_stats else None
        widths_and_aligns.append(
            (column_width(column.dtype, stats), column.dtype.typalign)
        )
    return aligned_row_width(widths_and_aligns, INDEX_ROW_OVERHEAD)


def estimate_index_pages(
    table: Table,
    index: Index,
    row_count: float,
    column_stats: Mapping[str, ColumnStats] | None = None,
    fillfactor: float = BTREE_LEAF_FILLFACTOR,
) -> int:
    """Equation 1: leaf pages of a (what-if) B-Tree index.

    ``fillfactor`` models the slack B-Tree leaves keep for future
    insertions; set it to 1.0 for the paper's literal formula.
    """
    if row_count <= 0:
        return 1
    row_width = index_row_width(table, index, column_stats)
    usable = (BLOCK_SIZE - PAGE_HEADER_SIZE) * fillfactor
    rows_per_page = max(1, int(usable // row_width))
    return max(1, math.ceil(row_count / rows_per_page))


def index_row_widths_batch(
    table: Table,
    column_sequences: Sequence[tuple[str, ...]],
    column_stats: Mapping[str, ColumnStats] | None = None,
) -> np.ndarray:
    """Leaf-entry widths for many key-column sequences in one pass.

    Vectorizes the alignment walk of :func:`aligned_row_width` across
    sequences: column widths and alignments are resolved once per
    distinct column, the running offsets advance in lockstep (one array
    op per key position, and key widths are at most a handful), and the
    result is bit-identical to calling :func:`index_row_width` per
    sequence.
    """
    n = len(column_sequences)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    width_of: dict[str, int] = {}
    align_of: dict[str, int] = {}
    for seq in column_sequences:
        for name in seq:
            if name not in width_of:
                column = table.column(name)
                stats = column_stats.get(name) if column_stats else None
                width_of[name] = column_width(column.dtype, stats)
                align_of[name] = column.dtype.typalign

    depth = max(len(seq) for seq in column_sequences)
    # Padding columns use width 0 / alignment 1: both are identities
    # for the offset recurrence, so ragged sequences stay exact.
    widths = np.zeros((n, depth), dtype=np.int64)
    aligns = np.ones((n, depth), dtype=np.int64)
    for i, seq in enumerate(column_sequences):
        for j, name in enumerate(seq):
            widths[i, j] = width_of[name]
            aligns[i, j] = align_of[name]

    offsets = np.full(n, INDEX_ROW_OVERHEAD, dtype=np.int64)
    for j in range(depth):
        a = aligns[:, j]
        offsets = (offsets + a - 1) // a * a
        offsets = offsets + widths[:, j]
    return (offsets + 7) // 8 * 8


def estimate_index_pages_batch(
    table: Table,
    column_sequences: Sequence[tuple[str, ...]],
    row_count: float,
    column_stats: Mapping[str, ColumnStats] | None = None,
    fillfactor: float = BTREE_LEAF_FILLFACTOR,
) -> np.ndarray:
    """Equation 1 over many candidate key sequences at once.

    Returns an int64 array aligned with ``column_sequences``; each
    element equals the scalar :func:`estimate_index_pages` for an index
    with those key columns (the floor/ceil arithmetic is carried out in
    the same IEEE operations, so equality is exact, not approximate).
    """
    n = len(column_sequences)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if row_count <= 0:
        return np.ones(n, dtype=np.int64)
    row_widths = index_row_widths_batch(table, column_sequences, column_stats)
    usable = (BLOCK_SIZE - PAGE_HEADER_SIZE) * fillfactor
    rows_per_page = np.maximum(1, (usable // row_widths).astype(np.int64))
    pages = np.ceil(float(row_count) / rows_per_page).astype(np.int64)
    return np.maximum(1, pages)


def tuple_width(
    table: Table,
    column_stats: Mapping[str, ColumnStats] | None = None,
    columns: tuple[str, ...] | None = None,
) -> int:
    """Average heap tuple width of ``table`` (or a projection of it)."""
    names = columns if columns is not None else table.column_names
    widths_and_aligns: list[tuple[int, int]] = []
    for name in names:
        column = table.column(name)
        stats = column_stats.get(name) if column_stats else None
        widths_and_aligns.append(
            (column_width(column.dtype, stats), column.dtype.typalign)
        )
    return aligned_row_width(widths_and_aligns, HEAP_TUPLE_OVERHEAD)


def estimate_heap_pages(
    table: Table,
    row_count: float,
    column_stats: Mapping[str, ColumnStats] | None = None,
    columns: tuple[str, ...] | None = None,
) -> int:
    """Heap pages for ``row_count`` rows of ``table`` (or a projection).

    Used to size what-if partition tables: the fragment's page count is
    derived from the original table's statistics, never from real data.
    """
    if row_count <= 0:
        return 1
    width = tuple_width(table, column_stats, columns)
    usable = BLOCK_SIZE - PAGE_HEADER_SIZE
    rows_per_page = max(1, usable // width)
    return max(1, math.ceil(row_count / rows_per_page))


def validate_fillfactor(fillfactor: float) -> None:
    """Reject nonsense fill factors early, before they skew every estimate."""
    if not 0.1 <= fillfactor <= 1.0:
        raise StatisticsError(f"fillfactor {fillfactor} outside [0.1, 1.0]")
