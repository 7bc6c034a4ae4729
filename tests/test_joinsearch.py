"""Join-search internals: interesting orders, candidates, merge reuse."""

import pytest

from repro.catalog.schema import Index
from repro.optimizer.config import PlannerConfig
from repro.optimizer.joinsearch import RelSet, order_satisfies
from repro.optimizer.planner import Planner
from repro.optimizer.plans import MergeJoin, SeqScan, Sort
from repro.sql.binder import bind
from repro.sql.parser import parse_select

from tests.conftest import make_people_db


class TestOrderSatisfies:
    def test_exact_match(self):
        order = (("t", "a"), ("t", "b"))
        assert order_satisfies(order, (("t", "a"),))
        assert order_satisfies(order, order)

    def test_longer_requirement_fails(self):
        assert not order_satisfies((("t", "a"),), (("t", "a"), ("t", "b")))

    def test_prefix_must_match_in_order(self):
        order = (("t", "a"), ("t", "b"))
        assert not order_satisfies(order, (("t", "b"),))

    def test_empty_requirement_always_satisfied(self):
        assert order_satisfies((), ())
        assert order_satisfies((("t", "a"),), ())


class TestRelSet:
    def scan(self, cost, order=()):
        return SeqScan(
            startup_cost=0.0, total_cost=cost, rows=10, width=8,
            out_order=order, alias="t", table_name="t",
        )

    def test_cheapest_tracked(self):
        rs = RelSet(aliases=frozenset({"t"}), rows=10, width=8)
        rs.consider(self.scan(100))
        rs.consider(self.scan(50))
        rs.consider(self.scan(75))
        assert rs.cheapest.total_cost == 50

    def test_ordered_plans_kept_even_if_costlier(self):
        rs = RelSet(aliases=frozenset({"t"}), rows=10, width=8)
        rs.consider(self.scan(50))
        rs.consider(self.scan(80, order=(("t", "a"),)))
        candidates = rs.candidates()
        assert len(candidates) == 2
        assert any(p.out_order for p in candidates)

    def test_cheaper_plan_per_order_replaces(self):
        rs = RelSet(aliases=frozenset({"t"}), rows=10, width=8)
        rs.consider(self.scan(80, order=(("t", "a"),)))
        rs.consider(self.scan(60, order=(("t", "a"),)))
        ordered = [p for p in rs.candidates() if p.out_order]
        assert len(ordered) == 1 and ordered[0].total_cost == 60

    def test_dominated_ordered_plan_not_duplicated(self):
        rs = RelSet(aliases=frozenset({"t"}), rows=10, width=8)
        rs.consider(self.scan(50, order=(("t", "a"),)))
        # cheapest IS the ordered plan: candidates() must not repeat it.
        assert len(rs.candidates()) == 1


class TestMergeJoinOrderReuse:
    @staticmethod
    def indexed_db(rows):
        database = make_people_db(rows=rows, seed=67)
        database.create_index(Index("ix_pid", "people", ("person_id",)))
        database.create_index(Index("ix_owner", "pets", ("owner_id",)))
        return database

    @pytest.fixture(scope="class")
    def db(self):
        return self.indexed_db(3000)

    def test_merge_join_skips_sort_on_indexed_side(self, db):
        config = PlannerConfig().with_flags(
            enable_hashjoin=False, enable_nestloop=False
        )
        plan = Planner(db.catalog, config).plan(
            bind(
                db.catalog,
                parse_select(
                    "select p.age from people p, pets q "
                    "where p.person_id = q.owner_id"
                ),
            )
        )
        merge = next(n for n in plan.walk() if isinstance(n, MergeJoin))
        # At least one side should come pre-sorted from its index.
        sides_sorted_by_node = sum(
            isinstance(side, Sort) for side in (merge.outer, merge.inner)
        )
        assert sides_sorted_by_node < 2, (
            "index order should spare at least one explicit sort"
        )

    def test_merge_join_correct_without_sorts(self):
        from repro.executor.executor import execute
        from tests.reference import rows_equal, run_reference

        # Both competing join methods are off, so the plan is the same
        # merge join at any size; the reference engine materializes the
        # cartesian product, so keep the database small.
        db = self.indexed_db(300)
        config = PlannerConfig().with_flags(
            enable_hashjoin=False, enable_nestloop=False
        )
        query = bind(
            db.catalog,
            parse_select(
                "select p.person_id, q.pet_id from people p, pets q "
                "where p.person_id = q.owner_id and q.weight > 30"
            ),
        )
        plan = Planner(db.catalog, config).plan(query)
        merge = next(n for n in plan.walk() if isinstance(n, MergeJoin))
        assert not (isinstance(merge.outer, Sort) and isinstance(merge.inner, Sort))
        result = execute(db, plan)
        assert rows_equal(result.rows, run_reference(db, query), ordered=False)
