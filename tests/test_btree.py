"""Unit and property tests for the real B-Tree index."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmarks.bench_e7_size_model import INDEXES as E7_INDEXES
from repro.catalog.datatypes import DOUBLE, INTEGER, TEXT
from repro.catalog.schema import Index, make_table
from repro.catalog.sizing import estimate_index_pages
from repro.errors import ExecutorError
from repro.storage.btree import BTreeIndex
from repro.storage.heap import HeapFile
from repro.workloads.sdss import build_sdss_database

from tests.reference import ReferenceBTree

NAN = float("nan")


def build(values, columns=("k",), table_types=None):
    """Build a B-Tree over column-major ``values`` dict."""
    table_types = table_types or [("k", INTEGER)]
    table = make_table("t", table_types)
    heap = HeapFile(table, values)
    index = Index("i", "t", columns)
    return BTreeIndex(index, table, heap), heap


class TestBuild:
    def test_rejects_hypothetical(self):
        table = make_table("t", [("k", INTEGER)])
        heap = HeapFile(table, {"k": [1]})
        with pytest.raises(ExecutorError):
            BTreeIndex(Index("i", "t", ("k",), hypothetical=True), table, heap)

    def test_entry_count(self):
        btree, _ = build({"k": [3, 1, 2]})
        assert btree.entry_count == 3

    def test_empty(self):
        btree, _ = build({"k": []})
        assert btree.leaf_page_count == 1
        assert list(btree.scan_all()) == []

    def test_leaf_pages_grow_with_entries(self):
        small, _ = build({"k": list(range(100))})
        large, _ = build({"k": list(range(50_000))})
        assert large.leaf_page_count > small.leaf_page_count
        assert large.height >= 1


class TestSearch:
    def test_full_scan_in_key_order(self):
        btree, heap = build({"k": [5, 1, 4, 2, 3]})
        keys = [heap.value(rid, "k") for rid, _page in btree.scan_all()]
        assert keys == [1, 2, 3, 4, 5]

    def test_range_inclusive_exclusive(self):
        btree, heap = build({"k": list(range(10))})
        inclusive = [heap.value(r, "k") for r, _ in btree.search_range((2,), (5,))]
        assert inclusive == [2, 3, 4, 5]
        exclusive = [
            heap.value(r, "k")
            for r, _ in btree.search_range((2,), (5,), False, False)
        ]
        assert exclusive == [3, 4]

    def test_nulls_sort_last_and_excluded_from_ranges(self):
        btree, heap = build({"k": [2, None, 1]})
        all_keys = [heap.value(r, "k") for r, _ in btree.scan_all()]
        assert all_keys == [1, 2, None]
        ranged = [heap.value(r, "k") for r, _ in btree.search_range((0,), (9,))]
        assert None not in ranged

    def test_nan_sorts_after_numbers_and_before_null(self):
        """One NaN used to leave the index unsorted (no total order under
        ``list.sort``/``bisect``); now it is PostgreSQL's float order."""
        floats = [("k", DOUBLE)]
        btree, _ = build({"k": [3.0, NAN, 1.0, 2.0]}, table_types=floats)
        assert btree.build_path == "numpy"
        assert [r for r, _ in btree.scan_all()] == [2, 3, 0, 1]
        # A finite upper bound never yields the NaN row; an open one does.
        assert [r for r, _ in btree.search_range((1.0,), (3.0,))] == [2, 3, 0]
        assert [r for r, _ in btree.search_range((2.0,), None, False)] == [0, 1]
        # The tuple path (a NULL in the key) agrees, NaN before NULL, and
        # rows tied on NaN fall through to the next column.
        data = {"k": [NAN, None, 1.0, NAN], "b": [2, 0, 0, 1]}
        mixed = [("k", DOUBLE), ("b", INTEGER)]
        btree, _ = build(data, columns=("k", "b"), table_types=mixed)
        assert btree.build_path == "tuples"
        assert [r for r, _ in btree.scan_all()] == [2, 3, 0, 1]
        assert [r for r, _ in btree.search_range(None, (5.0,))] == [2]
        del data["k"][1], data["b"][1]
        btree, _ = build(data, columns=("k", "b"), table_types=mixed)
        assert btree.build_path == "numpy"
        assert [r for r, _ in btree.scan_all()] == [1, 2, 0]


class TestMulticolumn:
    def make(self):
        data = {
            "a": [1, 1, 2, 2, 3],
            "b": [10.0, 20.0, 10.0, 20.0, 10.0],
        }
        table_types = [("a", INTEGER), ("b", DOUBLE)]
        return build(data, columns=("a", "b"), table_types=table_types)

    def test_prefix_probe(self):
        btree, heap = self.make()
        rows = [heap.row(r) for r, _ in btree.search_range((2,), (2,))]
        assert [(r["a"], r["b"]) for r in rows] == [(2, 10.0), (2, 20.0)]

    def test_full_key_probe(self):
        btree, heap = self.make()
        rows = [heap.row(r) for r, _ in btree.search_range((1, 20.0), (1, 20.0))]
        assert [(r["a"], r["b"]) for r in rows] == [(1, 20.0)]

    def test_prefix_range(self):
        btree, heap = self.make()
        rows = [heap.row(r) for r, _ in btree.search_range((1,), (2,))]
        assert len(rows) == 4


class TestTextKeys:
    def test_string_ordering(self):
        btree, heap = build(
            {"s": ["pear", "apple", "fig"]},
            columns=("s",),
            table_types=[("s", TEXT)],
        )
        keys = [heap.value(r, "s") for r, _ in btree.scan_all()]
        assert keys == ["apple", "fig", "pear"]

    def test_prefix_range_on_text(self):
        btree, heap = build(
            {"s": ["abc", "abd", "b", "ab"]},
            columns=("s",),
            table_types=[("s", TEXT)],
        )
        matches = [
            heap.value(r, "s")
            for r, _ in btree.search_range(("ab",), ("ac",), True, False)
        ]
        assert sorted(matches) == ["ab", "abc", "abd"]


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(
            st.one_of(st.integers(-50, 50), st.none()), min_size=0, max_size=120
        ),
        low=st.integers(-60, 60),
        span=st.integers(0, 40),
    )
    def test_range_matches_filter(self, keys, low, span):
        high = low + span
        btree, heap = build({"k": keys})
        got = sorted(
            heap.value(r, "k") for r, _ in btree.search_range((low,), (high,))
        )
        expected = sorted(k for k in keys if k is not None and low <= k <= high)
        assert got == expected

    def test_random_page_assignment_monotone(self):
        rng = random.Random(0)
        keys = [rng.randint(0, 10_000) for _ in range(20_000)]
        btree, _ = build({"k": keys})
        pages = [page for _rid, page in btree.scan_all()]
        assert pages == sorted(pages)
        assert pages[-1] == btree.leaf_page_count - 1


# One key column's values: few distinct ones so duplicates and ties are
# common; ints and floats that compare equal (1 == 1.0, 0.0 == -0.0).
INTS = st.integers(-3, 3) | st.sampled_from([2**53 + 1, -(2**62)])
FLOATS = st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.5, 1e300, float("inf")])
COLUMN_KINDS = {
    "int": (INTEGER, INTS),
    "float": (DOUBLE, FLOATS),
    "number": (DOUBLE, INTS | FLOATS),
    "text": (TEXT, st.sampled_from(["", "a", "ab", "abc", "b", "\u00e9"])),
}


@st.composite
def heaps_and_probes(draw):
    kinds = draw(
        st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=3)
    )
    rows = draw(st.integers(0, 40))
    data, types, values = {}, [], []
    for position, kind in enumerate(kinds):
        dtype, strategy = COLUMN_KINDS[kind]
        cells = strategy | st.none() if draw(st.booleans()) else strategy
        name = f"c{position}"
        data[name] = draw(st.lists(cells, min_size=rows, max_size=rows))
        types.append((name, dtype))
        values.append(strategy)

    def bound():
        width = draw(st.integers(1, len(kinds)))
        return draw(st.none() | st.tuples(*values[:width]))

    probes = [
        (bound(), bound(), draw(st.booleans()), draw(st.booleans()))
        for _ in range(4)
    ]
    return data, types, probes


class TestAgainstOldBuild:
    """The wrapper-object build (``tests/reference.py``) is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(heaps_and_probes())
    @example(  # the numpy path: every key column NULL-free ints or floats
        ({"c0": [2, 1, 2, 1], "c1": [0.5, 2.5, 0.5, -1.5]},
         [("c0", INTEGER), ("c1", DOUBLE)],
         [((1,), (2, 0.5), False, True), (None, (2,), True, False)])
    )
    @example(  # the tuple path: a NULL, a string column, an int among floats
        ({"c0": ["b", None, "a", "b"], "c1": [1, 1.0, None, 0.5]},
         [("c0", TEXT), ("c1", DOUBLE)],
         [(("a",), ("b", 1), True, True), (("b", 0.5), None, False, True)])
    )
    def test_order_pages_and_ranges_match(self, case):
        data, types, probes = case
        table = make_table("t", types)
        heap = HeapFile(table, data)
        index = Index("i", "t", tuple(data))
        new = BTreeIndex(index, table, heap)
        old = ReferenceBTree(index, table, heap)

        kinds = [{type(v) for v in column} for column in data.values()]
        numeric = all(kind <= {int} or kind <= {float} for kind in kinds)
        assert new.build_path == ("numpy" if numeric else "tuples")
        assert list(new.scan_all()) == list(old.scan_all())
        assert new.leaf_page_count == old.leaf_page_count
        assert new.height == old.height
        for probe in probes:
            assert list(new.search_range(*probe)) == list(old.search_range(*probe))


class TestEquation1AgainstBuiltTrees:
    def test_e7_estimate_within_five_percent(self):
        """Experiment E7 at tier-1 scale: the what-if size model tracks
        the leaf pages this builder packs, on every E7 index."""
        db = build_sdss_database(photo_rows=1500, seed=42)
        for table_name, columns in E7_INDEXES:
            stats = db.catalog.statistics(table_name)
            estimated = estimate_index_pages(
                db.catalog.table(table_name),
                Index("e7_h", table_name, columns, hypothetical=True),
                stats.table.row_count,
                stats.columns,
            )
            actual = db.create_index(Index("e7_r", table_name, columns)).leaf_page_count
            db.drop_index("e7_r")
            assert abs(estimated - actual) <= 0.05 * actual, (table_name, columns)
