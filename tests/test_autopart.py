"""AutoPart advisor tests on a wide table."""

import random

import pytest

from repro.catalog.datatypes import DOUBLE, INTEGER
from repro.catalog.schema import PartitionScheme, make_table
from repro.errors import AdvisorError
from repro.optimizer.planner import Planner
from repro.partitioning.autopart import AutoPartAdvisor
from repro.partitioning.fragments import fragment_with_pk
from repro.partitioning.rewrite import PartitionRewriter
from repro.sql.binder import bind
from repro.sql.printer import to_sql
from repro.storage.database import Database
from repro.whatif.session import WhatIfSession
from repro.workloads.sdss import build_sdss_database, sdss_workload
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


def fresh_cost(catalog, schemes, bound) -> float:
    """``Planner.plan`` on ``bound`` freshly rewritten and rebound under
    ``schemes``: new shells, new session, nothing of the advisor's."""
    if not schemes:
        return Planner(catalog).plan(bound).total_cost
    session = WhatIfSession(catalog)
    for table, scheme in schemes.items():
        for position, columns in enumerate(scheme.fragments):
            session.add_partition_table(table, columns, scheme.fragment_name(position))
    rebound = bind(session.catalog, PartitionRewriter(schemes).rewrite(bound))
    return session.planner().plan(rebound).total_cost


def recommend_checking_every_pricing(catalog, workload, **options):
    """Run the search; after each layout it prices, require every
    query's memoised cost to equal its fresh cost under that layout."""
    advisor = AutoPartAdvisor(catalog, **options)
    price = advisor._workload_cost
    bound = {query.name: query.bind(catalog) for query in workload}
    visited = []

    def price_and_check(workload, layout):
        total = price(workload, layout)
        schemes = {
            name: PartitionScheme(
                name,
                tuple(fragment_with_pk(catalog.table(name), f) for f in fragments),
            )
            for name, fragments in layout.fragments.items()
            if fragments
        }
        footprints = PartitionRewriter(schemes)
        for name, query in bound.items():
            memoised = advisor._cost_cache[(name, footprints.footprint(query))]
            assert memoised == fresh_cost(catalog, schemes, query), (name, schemes)
        visited.append(layout)
        return total

    advisor._workload_cost = price_and_check
    return advisor.recommend(workload), visited


class TestFootprintPricing:
    """The one cost memo is keyed by what a query reads of a layout (its
    footprint), not by the layout: a (query, layout) pair the search
    visits is priced by the planner only if no earlier layout gave the
    query the same fragments to read. Fragment names and aliases carry
    the fragment's position and the footprint does not, so what is
    pinned here is that the planner's cost does not either."""

    def test_memo_equals_fresh_planning_on_wide(self, db):
        result, visited = recommend_checking_every_pricing(
            db.catalog, WORKLOAD, replication_limit=0.25, max_iterations=6
        )
        assert len(visited) > 2 and result.schemes
        assert result.evaluations < len(visited) * len(WORKLOAD)
        assert result.evaluations + result.rebinds_shared == len(visited) * len(WORKLOAD)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_memo_equals_fresh_planning_on_sdss(self, seed):
        sdss = build_sdss_database(photo_rows=1500, seed=seed)
        survey = sdss_workload()
        workload = Workload(
            name="joins",
            queries=[
                survey.query(name)
                for name in (
                    "q01_box_search", "q06_red_galaxies", "q15_spec_redshift_join",
                    "q19_spec_photo_offset", "q24_merger_candidates",
                    "q26_field_objects", "q29_spec_field_quality",
                )
            ],
        )
        result, visited = recommend_checking_every_pricing(sdss.catalog, workload)
        assert len(result.schemes) > 1  # joins across partitioned tables
        assert result.evaluations < len(visited) * len(workload) / 2

    def test_cost_ignores_fragment_positions(self, db):
        """The same two fragments at positions 0, 1 and at 9, 10, where
        the aliases sort the other way round (``__f10`` < ``__f9``)."""
        table = db.catalog.table("wide")
        read = [("id", "c00", "c01"), ("id", "c05", "c06")]
        singles = [("id", f"c{i:02d}") for i in range(7, 16)]
        rest = [
            fragment_with_pk(table, tuple(
                c for c in table.column_names
                if c not in {"c00", "c01", "c05", "c06"}
                and c not in {f"c{i:02d}" for i in range(7, 16)}
            ))
        ]
        low = {"wide": PartitionScheme("wide", tuple(read + singles + rest))}
        high = {"wide": PartitionScheme("wide", tuple(singles + read + rest))}
        for sql in (
            "select c00, c05, c06 from wide where c05 > 95",
            "select a.c00, b.c06 from wide a, wide b "
            "where a.id = b.id and a.c01 < 5 and b.c05 > 95",
        ):
            bound = Query("q", sql).bind(db.catalog)
            assert (
                PartitionRewriter(low).footprint(bound)
                == PartitionRewriter(high).footprint(bound)
            )
            assert "wide__frag10" in to_sql(PartitionRewriter(high).rewrite(bound))
            assert fresh_cost(db.catalog, low, bound) == fresh_cost(db.catalog, high, bound)
