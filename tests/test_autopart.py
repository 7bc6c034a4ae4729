"""AutoPart advisor tests on a wide table."""

import random

import pytest

from repro.catalog.datatypes import DOUBLE, INTEGER
from repro.catalog.schema import make_table
from repro.errors import AdvisorError
from repro.partitioning.autopart import AutoPartAdvisor
from repro.storage.database import Database
from repro.workloads.workload import Query, Workload


def build_wide_db(rows: int = 4000, width: int = 24, seed: int = 43) -> Database:
    """One wide table where queries touch small disjoint column groups —
    the textbook case for vertical partitioning."""
    rng = random.Random(seed)
    columns = [("id", INTEGER)] + [(f"c{i:02d}", DOUBLE) for i in range(width)]
    db = Database()
    db.create_table(
        make_table("wide", columns, primary_key="id"),
        {
            "id": list(range(rows)),
            **{
                f"c{i:02d}": [rng.uniform(0, 100) for _ in range(rows)]
                for i in range(width)
            },
        },
    )
    return db


WORKLOAD = Workload(
    name="wide",
    queries=[
        Query("hot1", "select c00, c01 from wide where c00 < 50"),
        Query("hot2", "select c00, c01 from wide where c01 > 50"),
        Query("hot3", "select c02, c03 from wide where c02 < 10"),
        Query("agg", "select count(*), avg(c01) from wide where c00 between 10 and 30"),
        Query("wide_touch", "select c00, c05, c06 from wide where c05 > 95"),
    ],
)


@pytest.fixture(scope="module")
def db():
    return build_wide_db()


@pytest.fixture(scope="module")
def result(db):
    advisor = AutoPartAdvisor(db.catalog, replication_limit=0.25, max_iterations=6)
    return advisor.recommend(WORKLOAD)


class TestRecommendation:
    def test_improves_wide_table_workload(self, result):
        assert result.cost_after < result.cost_before
        assert result.speedup > 1.5  # narrow fragments on a 25-col table

    def test_schemes_cover_all_columns(self, db, result):
        scheme = result.schemes["wide"]
        covered = set()
        for fragment in scheme.fragments:
            covered |= set(fragment)
        assert covered == set(db.catalog.table("wide").column_names)

    def test_fragments_include_pk(self, result):
        for fragment in result.schemes["wide"].fragments:
            assert "id" in fragment

    def test_hot_columns_grouped(self, result):
        """c00 and c01 are always accessed together: some fragment holds
        both (the composite-generation payoff)."""
        assert any(
            {"c00", "c01"} <= set(f) for f in result.schemes["wide"].fragments
        )

    def test_rewritten_sql_for_every_query(self, result):
        assert set(result.rewritten_sql) == {q.name for q in WORKLOAD}
        assert "wide__frag" in result.rewritten_sql["hot1"]

    def test_per_query_benefits(self, result):
        assert len(result.per_query) == len(WORKLOAD)
        assert sum(q.cost_after for q in result.per_query) == pytest.approx(
            result.cost_after, rel=1e-6
        )

    def test_iterations_recorded(self, result):
        assert 1 <= result.iterations <= 6
        assert result.evaluations > 0


class TestConstraints:
    def test_zero_replication_still_works(self, db):
        advisor = AutoPartAdvisor(db.catalog, replication_limit=0.0, max_iterations=3)
        result = advisor.recommend(WORKLOAD)
        assert result.cost_after <= result.cost_before

    def test_negative_replication_rejected(self, db):
        with pytest.raises(AdvisorError):
            AutoPartAdvisor(db.catalog, replication_limit=-0.1)

    def test_table_filter(self, db):
        advisor = AutoPartAdvisor(
            db.catalog, tables=["wide"], max_iterations=2
        )
        result = advisor.recommend(WORKLOAD)
        assert set(result.schemes) <= {"wide"}

    def test_no_partitionable_table_rejected(self, db):
        advisor = AutoPartAdvisor(db.catalog, tables=["nonexistent"])
        with pytest.raises(AdvisorError):
            advisor.recommend(WORKLOAD)


class TestFallback:
    def test_never_recommends_a_regression(self):
        """A workload that always reads every column gains nothing from
        partitioning; AutoPart must fall back to 'no partitions'."""
        db = build_wide_db(rows=1000, width=4)
        full_scan = Workload(
            queries=[Query("all", "select * from wide where c00 > 50")]
        )
        advisor = AutoPartAdvisor(db.catalog, max_iterations=3)
        result = advisor.recommend(full_scan)
        assert result.cost_after <= result.cost_before * 1.0001


class TestPreparedStateSharing:
    """Shells, statistics, and rebound queries are built once per
    distinct fragment / (query, layout) pair, then shared across every
    trial session of one recommend() call."""

    def test_sharing_counters_populated(self, result):
        assert result.shells_shared > 0
        assert result.rebinds_shared > 0

    def test_final_layout_reuses_trial_state(self, result):
        # Finalization re-renders every query of the final layout; all
        # of those forms were already built while pricing trials, so
        # each rewritten query contributes at least one shared rebind.
        assert result.schemes  # every query's table is partitioned
        assert result.rebinds_shared >= len(result.per_query)
