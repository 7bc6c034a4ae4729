"""Workload container, SDSS/star builders, and the query generator."""

import os
import queue
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.executor.executor import execute
from repro.optimizer.planner import Planner
from repro.sql.binder import bind
from repro.sql.parser import parse_select
from repro.workloads.generator import random_workload
from repro.workloads.sdss import build_sdss_database, sdss_workload
from repro.workloads.workload import Query, Workload, iter_statements
from tests.reference import read_statements


class TestWorkloadContainer:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ReproError):
            Workload(queries=[Query("q", "select 1 from t"), Query("q", "select 2 from t")])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ReproError):
            Query("q", "select 1 from t", weight=0)

    def test_lookup_and_iteration(self):
        wl = Workload.from_sql(["select 1 from a", "select 2 from b"])
        assert len(wl) == 2
        assert wl.query("q1").sql == "select 1 from a"
        with pytest.raises(ReproError):
            wl.query("zzz")

    def test_subset(self):
        wl = Workload.from_sql(["select 1 from a", "select 2 from b"])
        assert len(wl.subset(1)) == 1

    def test_total_weight(self):
        wl = Workload(queries=[Query("a", "s", weight=2), Query("b", "s", weight=3)])
        assert wl.total_weight == 5

    def test_from_file(self, tmp_path):
        path = tmp_path / "wl.sql"
        path.write_text(
            "-- comment\nselect a from t;\n\nselect b from u;\n"
        )
        wl = Workload.from_file(str(path))
        assert len(wl) == 2
        assert wl.queries[1].sql.endswith("select b from u")


# Text over a small alphabet that hits every splitting edge: empty and
# whitespace-only statements, ";;", leading/trailing ";" and newlines.
_SQL_TEXT = st.text(alphabet="ab ;\n\t-", max_size=60)


class TestIterStatements:
    @given(text=_SQL_TEXT, cuts=st.lists(st.integers(0, 60), max_size=8))
    def test_any_chunking_yields_the_whole_text_split(self, text, cuts):
        bounds = sorted({0, len(text), *(min(c, len(text)) for c in cuts)})
        chunks = [text[a:b] for a, b in zip(bounds, bounds[1:])]
        assert list(iter_statements(chunks)) == read_statements([text])

    @given(text=_SQL_TEXT)
    def test_file_reads_like_the_oracle(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("stream") / "s.sql"
        path.write_text(text)
        assert list(iter_statements(str(path))) == read_statements(str(path))

    def test_open_pipe_yields_before_eof(self):
        # The writer stays open: a reader that waits for EOF never
        # returns the first statement.
        read_fd, write_fd = os.pipe()
        reader = os.fdopen(read_fd)
        os.write(write_fd, b"select a from t;\nselect b from u;\n")
        statements = iter_statements(reader)
        got: queue.Queue = queue.Queue()
        helper = threading.Thread(
            target=lambda: got.put(next(statements)), daemon=True
        )
        helper.start()
        try:
            assert got.get(timeout=2) == "select a from t"
        finally:
            os.close(write_fd)
            helper.join(timeout=2)
            reader.close()


@pytest.fixture(scope="module")
def sdss():
    return build_sdss_database(photo_rows=3000, seed=42)


class TestSdss:
    def test_tables_and_ratios(self, sdss):
        assert set(sdss.table_names) == {"photoobj", "specobj", "neighbors", "field"}
        photo = sdss.relation("photoobj").heap.row_count
        spec = sdss.relation("specobj").heap.row_count
        assert photo == 3000
        assert spec == photo // 5

    def test_photoobj_is_wide(self, sdss):
        assert len(sdss.catalog.table("photoobj").columns) >= 40

    def test_deterministic(self):
        a = build_sdss_database(photo_rows=500, seed=9)
        b = build_sdss_database(photo_rows=500, seed=9)
        assert a.relation("photoobj").heap.column("ra") == b.relation(
            "photoobj"
        ).heap.column("ra")

    def test_spec_references_photo(self, sdss):
        photo_ids = set(sdss.relation("photoobj").heap.column("objid"))
        for objid in sdss.relation("specobj").heap.column("bestobjid"):
            assert objid in photo_ids

    def test_ra_is_physically_correlated(self, sdss):
        stats = sdss.catalog.statistics("photoobj")
        assert stats.column("ra").correlation > 0.9

    def test_workload_has_30_queries(self):
        assert len(sdss_workload()) == 30

    def test_all_queries_plan_and_execute(self, sdss):
        """Every one of the 30 queries parses, binds, plans, and runs."""
        planner = Planner(sdss.catalog)
        for query in sdss_workload():
            bound = query.bind(sdss.catalog)
            plan = planner.plan(bound)
            result = execute(sdss, plan)
            assert result.columns, query.name

    def test_workload_is_selective_enough_to_tune(self, sdss):
        """Most queries must touch few columns — the property that makes
        physical design worthwhile."""
        narrow = 0
        for query in sdss_workload():
            bound = query.bind(sdss.catalog)
            for alias, needed in bound.required_columns.items():
                table = bound.rel(alias).table
                if len(needed) <= len(table.columns) / 4:
                    narrow += 1
                    break
        assert narrow >= 25


class TestGenerator:
    def test_generates_requested_count(self, sdss):
        wl = random_workload(sdss.catalog, 12, seed=1)
        assert len(wl) == 12

    def test_queries_bind_and_plan(self, sdss):
        planner = Planner(sdss.catalog)
        for query in random_workload(sdss.catalog, 20, seed=2):
            plan = planner.plan(query.bind(sdss.catalog))
            assert plan.total_cost > 0

    def test_deterministic(self, sdss):
        a = random_workload(sdss.catalog, 5, seed=3)
        b = random_workload(sdss.catalog, 5, seed=3)
        assert [q.sql for q in a] == [q.sql for q in b]

    def test_different_seeds_differ(self, sdss):
        a = random_workload(sdss.catalog, 5, seed=4)
        b = random_workload(sdss.catalog, 5, seed=5)
        assert [q.sql for q in a] != [q.sql for q in b]

    def test_rejects_unanalyzed_catalog(self):
        from repro.catalog.catalog import Catalog

        with pytest.raises(ValueError):
            random_workload(Catalog(), 3)
