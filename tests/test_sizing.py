"""Unit tests for size estimation, including the paper's Equation 1."""

import math

import pytest

from repro.catalog.datatypes import BIGINT, DOUBLE, INTEGER, SMALLINT, TEXT
from repro.catalog.schema import Index, make_table
from repro.catalog.sizing import (
    BLOCK_SIZE,
    BTREE_LEAF_FILLFACTOR,
    HEAP_TUPLE_OVERHEAD,
    INDEX_ROW_OVERHEAD,
    PAGE_HEADER_SIZE,
    aligned_row_width,
    estimate_heap_pages,
    estimate_index_pages,
    index_row_width,
    tuple_width,
    validate_fillfactor,
)
from repro.catalog.statistics import ColumnStats
from repro.errors import StatisticsError


def table():
    return make_table(
        "t",
        [("id", INTEGER), ("x", DOUBLE), ("s", SMALLINT), ("txt", TEXT)],
        primary_key="id",
    )


class TestConstants:
    def test_paper_constants(self):
        """Equation 1's o=24 and B=8192 (PostgreSQL 8.3)."""
        assert INDEX_ROW_OVERHEAD == 24
        assert BLOCK_SIZE == 8192


class TestAlignedRowWidth:
    def test_no_padding_needed(self):
        assert aligned_row_width([(4, 4), (4, 4)], base_overhead=24) == 32

    def test_padding_before_wide_column(self):
        # 24 + int4 = 28, align to 8 -> 32, + double = 40
        assert aligned_row_width([(4, 4), (8, 8)], base_overhead=24) == 40

    def test_alignment_depends_on_column_order(self):
        # the paper's align(c) term: padding depends on preceding columns
        interleaved = aligned_row_width([(2, 2), (8, 8), (2, 2)], 24)  # 48
        grouped = aligned_row_width([(2, 2), (2, 2), (8, 8)], 24)  # 40
        assert interleaved == 48
        assert grouped == 40

    def test_final_maxalign(self):
        assert aligned_row_width([(1, 1)], 24) % 8 == 0


class TestEquation1:
    def test_single_int_index(self):
        t = table()
        index = Index("i", "t", ("id",))
        # row width: 24 + 4 aligned to 8 = 32 bytes
        assert index_row_width(t, index) == 32
        rows_per_page = int((BLOCK_SIZE - PAGE_HEADER_SIZE) * BTREE_LEAF_FILLFACTOR // 32)
        expected = math.ceil(100_000 / rows_per_page)
        assert estimate_index_pages(t, index, 100_000) == expected

    def test_multicolumn_alignment(self):
        t = table()
        # (s, x): 24 + 2 -> align 8 -> 32 + 8 = 40
        assert index_row_width(t, Index("i", "t", ("s", "x"))) == 40
        # (x, s): 24 + 8 = 32 + 2 = 34 -> maxalign 40
        assert index_row_width(t, Index("i", "t", ("x", "s"))) == 40

    def test_varlena_uses_measured_width(self):
        t = table()
        narrow = {"txt": ColumnStats(avg_width=5)}
        wide = {"txt": ColumnStats(avg_width=120)}
        index = Index("i", "t", ("txt",))
        assert index_row_width(t, index, narrow) < index_row_width(t, index, wide)

    def test_more_rows_more_pages(self):
        t = table()
        index = Index("i", "t", ("id",))
        assert estimate_index_pages(t, index, 1_000_000) > estimate_index_pages(
            t, index, 1_000
        )

    def test_zero_rows_one_page(self):
        assert estimate_index_pages(table(), Index("i", "t", ("id",)), 0) == 1

    def test_literal_formula_with_fillfactor_one(self):
        t = table()
        index = Index("i", "t", ("id",))
        pages = estimate_index_pages(t, index, 50_000, fillfactor=1.0)
        per_page = (BLOCK_SIZE - PAGE_HEADER_SIZE) // 32
        assert pages == math.ceil(50_000 / per_page)


class TestHeapSizing:
    def test_tuple_width_whole_table(self):
        t = table()
        stats = {"txt": ColumnStats(avg_width=10)}
        width = tuple_width(t, stats)
        assert width >= HEAP_TUPLE_OVERHEAD + 4 + 8 + 2 + 10

    def test_projection_is_narrower(self):
        t = table()
        stats = {"txt": ColumnStats(avg_width=40)}
        assert tuple_width(t, stats, columns=("id",)) < tuple_width(t, stats)

    def test_heap_pages_shrink_with_projection(self):
        t = table()
        stats = {"txt": ColumnStats(avg_width=40)}
        full = estimate_heap_pages(t, 100_000, stats)
        frag = estimate_heap_pages(t, 100_000, stats, columns=("id", "s"))
        assert frag < full

    def test_zero_rows(self):
        assert estimate_heap_pages(table(), 0) == 1


class TestFillfactor:
    def test_validate(self):
        validate_fillfactor(0.9)
        with pytest.raises(StatisticsError):
            validate_fillfactor(0.01)
        with pytest.raises(StatisticsError):
            validate_fillfactor(1.5)


class TestBigintAlignment:
    def test_bigint_after_int_pays_padding(self):
        t = make_table("t2", [("a", INTEGER), ("b", BIGINT)])
        # 24 + 4 = 28 -> pad to 32 -> + 8 = 40
        assert index_row_width(t, Index("i", "t2", ("a", "b"))) == 40
