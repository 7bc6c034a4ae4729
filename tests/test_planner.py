"""Planner behavior tests: access paths, join methods, order reuse."""

import random

import pytest

from repro.catalog.datatypes import DOUBLE, INTEGER
from repro.catalog.schema import Index, make_table
from repro.errors import PlannerError
from repro.optimizer.config import PlannerConfig
from repro.optimizer.planner import Planner
from repro.optimizer.plans import (
    Aggregate,
    HashJoin,
    IndexScan,
    Join,
    Limit,
    NestLoop,
    Project,
    SeqScan,
    Sort,
    indexes_used,
    scan_nodes,
)
from repro.sql.binder import bind
from repro.sql.parser import parse_select
from repro.storage.database import Database

from tests.reference import reference_plan


def build_db(rows: int = 20_000, seed: int = 5) -> Database:
    rng = random.Random(seed)
    db = Database()
    db.create_table(
        make_table(
            "big",
            [("id", INTEGER), ("sorted_col", DOUBLE), ("random_col", DOUBLE),
             ("category", INTEGER)],
            primary_key="id",
        ),
        {
            "id": list(range(rows)),
            "sorted_col": sorted(rng.uniform(0, 1000) for _ in range(rows)),
            "random_col": [rng.uniform(0, 1000) for _ in range(rows)],
            "category": [rng.randint(1, 20) for _ in range(rows)],
        },
    )
    small = rows // 10
    db.create_table(
        make_table("small", [("sid", INTEGER), ("big_id", INTEGER), ("v", DOUBLE)],
                   primary_key="sid"),
        {
            "sid": list(range(small)),
            "big_id": [rng.randrange(rows) for _ in range(small)],
            "v": [rng.uniform(0, 1) for _ in range(small)],
        },
    )
    return db


@pytest.fixture(scope="module")
def db():
    database = build_db()
    database.create_index(Index("ix_sorted", "big", ("sorted_col",)))
    database.create_index(Index("ix_random", "big", ("random_col",)))
    database.create_index(Index("ix_id", "big", ("id",), unique=True))
    database.create_index(Index("ix_cat_random", "big", ("category", "random_col")))
    return database


def plan_sql(db, sql, config=None):
    return Planner(db.catalog, config).plan(bind(db.catalog, parse_select(sql)))


class TestAccessPathChoice:
    def test_unfiltered_scan_is_sequential(self, db):
        plan = plan_sql(db, "select id from big")
        scan, = scan_nodes(plan)
        assert isinstance(scan, SeqScan)

    def test_selective_point_query_uses_index(self, db):
        plan = plan_sql(db, "select random_col from big where id = 42")
        scan, = scan_nodes(plan)
        assert isinstance(scan, IndexScan)
        assert scan.index_name == "ix_id"

    def test_narrow_range_on_correlated_column_uses_index(self, db):
        plan = plan_sql(
            db, "select random_col from big where sorted_col between 10 and 20"
        )
        scan, = scan_nodes(plan)
        assert isinstance(scan, IndexScan) and scan.index_name == "ix_sorted"

    def test_wide_range_on_uncorrelated_column_uses_seqscan(self, db):
        plan = plan_sql(
            db, "select sorted_col from big where random_col between 100 and 600"
        )
        scan, = scan_nodes(plan)
        assert isinstance(scan, SeqScan)

    def test_correlation_tips_the_balance(self, db):
        # Same selectivity, different physical correlation.
        sorted_plan = plan_sql(
            db, "select id from big where sorted_col between 100 and 350"
        )
        random_plan = plan_sql(
            db, "select id from big where random_col between 100 and 350"
        )
        sorted_scan, = scan_nodes(sorted_plan)
        random_scan, = scan_nodes(random_plan)
        assert isinstance(sorted_scan, IndexScan)
        assert isinstance(random_scan, SeqScan)

    def test_index_only_scan_when_covered(self, db):
        plan = plan_sql(db, "select count(*) from big where random_col > 900")
        scan, = scan_nodes(plan)
        assert isinstance(scan, IndexScan)
        assert scan.index_only

    def test_multicolumn_eq_plus_range(self, db):
        plan = plan_sql(
            db,
            "select id from big where category = 3 and random_col between 1 and 50",
        )
        scan, = scan_nodes(plan)
        assert isinstance(scan, IndexScan)
        assert scan.index_name == "ix_cat_random"
        assert len(scan.index_quals) == 2

    def test_disable_indexscan(self, db):
        config = PlannerConfig().with_flags(enable_indexscan=False,
                                            enable_indexonlyscan=False)
        plan = plan_sql(db, "select random_col from big where id = 42", config)
        scan, = scan_nodes(plan)
        assert isinstance(scan, SeqScan)


class TestJoins:
    def test_hash_join_for_unindexed_equijoin(self, db):
        plan = plan_sql(
            db,
            "select s.v from small s, big b where s.big_id = b.random_col",
        )
        assert any(isinstance(n, HashJoin) for n in plan.walk())

    def test_parameterized_nestloop_with_index(self, db):
        plan = plan_sql(
            db,
            "select s.v, b.random_col from small s, big b "
            "where s.big_id = b.id and s.v < 0.01",
        )
        nl = [n for n in plan.walk() if isinstance(n, NestLoop)]
        assert nl, "expected a nested loop with parameterized inner index scan"
        inner = nl[0].inner
        assert isinstance(inner, IndexScan) and inner.ref_quals

    def test_nestloop_disabled_falls_back(self, db):
        config = PlannerConfig().with_flags(enable_nestloop=False)
        plan = plan_sql(
            db,
            "select s.v from small s, big b where s.big_id = b.id and s.v < 0.01",
            config,
        )
        assert not any(isinstance(n, NestLoop) for n in plan.walk())

    def test_three_way_join_planned(self, db):
        plan = plan_sql(
            db,
            "select s.v from small s, big b, big c "
            "where s.big_id = b.id and b.category = c.category and c.id = 7",
        )
        assert len(scan_nodes(plan)) == 3

    def test_cartesian_product_allowed_when_no_clause(self, db):
        plan = plan_sql(
            db, "select s.v from small s, big b where b.id = 3 and s.sid = 4"
        )
        assert len(scan_nodes(plan)) == 2
        # No clause touches c: the graph is disconnected, so the search
        # falls back to a cartesian product, as the reference DP does.
        query = bind(
            db.catalog,
            parse_select(
                "select s.v from small s, big b, big c "
                "where s.big_id = b.id and c.id = 7"
            ),
        )
        planner = Planner(db.catalog)
        plan = planner.plan(query)
        assert len(scan_nodes(plan)) == 3
        assert any(isinstance(n, Join) and not n.join_quals for n in plan.walk())
        assert plan == reference_plan(planner, query)

    def test_indexes_used_helper(self, db):
        plan = plan_sql(db, "select random_col from big where id = 42")
        assert indexes_used(plan) == {"big": "ix_id"}


class TestUpperPlan:
    def test_plain_aggregate(self, db):
        plan = plan_sql(db, "select count(*) from big")
        assert isinstance(plan, Aggregate)
        assert plan.strategy == "plain"
        assert plan.rows == 1.0

    def test_group_by_produces_aggregate(self, db):
        plan = plan_sql(db, "select category, count(*) from big group by category")
        assert isinstance(plan, Aggregate)
        assert plan.rows <= 25

    def test_order_by_adds_sort(self, db):
        # id is not in ix_random's key, so an index-only ordered scan is
        # impossible and a full-table sort is the cheapest option.
        plan = plan_sql(db, "select id, random_col from big order by random_col")
        assert isinstance(plan, Sort)

    def test_order_by_free_via_index_only_scan(self, db):
        plan = plan_sql(db, "select random_col from big order by random_col")
        assert not any(isinstance(n, Sort) for n in plan.walk())
        scan, = scan_nodes(plan)
        assert isinstance(scan, IndexScan) and scan.index_only

    def test_order_by_satisfied_by_index_skips_sort(self, db):
        plan = plan_sql(
            db,
            "select sorted_col from big where sorted_col > 995 order by sorted_col",
        )
        assert not any(isinstance(n, Sort) for n in plan.walk())

    def test_order_by_desc_still_sorts(self, db):
        plan = plan_sql(
            db,
            "select sorted_col from big where sorted_col > 995 "
            "order by sorted_col desc",
        )
        assert any(isinstance(n, Sort) for n in plan.walk())

    def test_limit_caps_rows_and_cost(self, db):
        unlimited = plan_sql(db, "select id from big")
        limited = plan_sql(db, "select id from big limit 10")
        assert isinstance(limited, Limit)
        assert limited.rows == 10
        assert limited.total_cost < unlimited.total_cost

    def test_distinct_project(self, db):
        plan = plan_sql(db, "select distinct category from big")
        assert isinstance(plan, Project) and plan.distinct

    def test_grouped_rows_estimate_capped_by_input(self, db):
        plan = plan_sql(db, "select id, count(*) from big where id < 5 group by id")
        assert plan.rows <= 10


class TestErrors:
    def test_no_statistics_raises(self):
        from repro.catalog.catalog import Catalog

        cat = Catalog()
        cat.add_table(make_table("t", [("a", INTEGER)]))
        with pytest.raises(PlannerError):
            Planner(cat).plan(bind(cat, parse_select("select a from t")))


class TestDeterminism:
    def test_same_query_same_plan(self, db):
        sql = (
            "select s.v from small s, big b where s.big_id = b.id "
            "and b.category = 5 order by s.v"
        )
        from repro.optimizer.plans import plan_signature

        first = plan_sql(db, sql)
        second = plan_sql(db, sql)
        assert plan_signature(first) == plan_signature(second)
        assert first.total_cost == second.total_cost
