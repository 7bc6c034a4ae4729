"""Tests for the what-if layer: the paper's core mechanism."""

import pytest

from repro.catalog.schema import Index
from repro.errors import WhatIfError
from repro.optimizer.paths import index_usable
from repro.optimizer.planner import Planner
from repro.optimizer.plans import plan_signature
from repro.sql.binder import bind
from repro.sql.parser import parse_select
from repro.whatif.session import WhatIfSession
from repro.whatif.tables import derive_partition_stats, make_partition_shell

from tests.conftest import make_people_db
from tests.reference import serving_indexes


@pytest.fixture()
def db():
    return make_people_db(rows=3000, seed=13)


@pytest.fixture()
def session(db):
    return WhatIfSession(db.catalog)


class TestWhatIfIndexes:
    def test_add_returns_hypothetical(self, session):
        index = session.add_index("people", ("age",))
        assert index.hypothetical
        assert index in session.hypothetical_indexes

    def test_named_index(self, session):
        index = session.add_index("people", ("age",), name="my_ix")
        assert index.name == "my_ix"

    def test_unknown_table(self, session):
        with pytest.raises(Exception):
            session.add_index("ghost", ("x",))

    def test_unknown_column(self, session):
        with pytest.raises(WhatIfError):
            session.add_index("people", ("nope",))

    def test_duplicate_signature_rejected(self, session):
        session.add_index("people", ("age",))
        with pytest.raises(WhatIfError):
            session.add_index("people", ("age",))

    def test_drop(self, session):
        index = session.add_index("people", ("age",))
        session.drop_index(index.name)
        assert session.hypothetical_indexes == []
        with pytest.raises(WhatIfError):
            session.drop_index(index.name)

    def test_clear(self, session):
        session.add_index("people", ("age",))
        session.add_index("pets", ("owner_id",))
        session.clear_indexes()
        assert session.hypothetical_indexes == []

    def test_size_pages_positive(self, session):
        index = session.add_index("people", ("age", "height"))
        assert session.index_size_pages(index) >= 1

    def test_base_catalog_untouched(self, db, session):
        session.add_index("people", ("age",))
        assert db.catalog.indexes_on("people") == []


class TestCostEquivalence:
    """The central invariant: simulation is indistinguishable from reality."""

    QUERIES = [
        "select age from people where person_id = 5",
        "select person_id from people where age between 30 and 31",
        "select p.age, q.weight from people p, pets q "
        "where p.person_id = q.owner_id and q.weight > 39.5",
    ]

    def test_whatif_matches_materialized(self, db):
        session = WhatIfSession(db.catalog)
        session.add_index("people", ("person_id",), name="w1")
        session.add_index("people", ("age",), name="w2")
        session.add_index("pets", ("weight",), name="w3")

        db.create_index(Index("m1", "people", ("person_id",)))
        db.create_index(Index("m2", "people", ("age",)))
        db.create_index(Index("m3", "pets", ("weight",)))
        real_planner = Planner(db.catalog)

        for sql in self.QUERIES:
            whatif_plan = session.plan(sql)
            # Note: session cloned the catalog before the real indexes
            # were added, so it sees only the hypothetical ones.
            real_plan = real_planner.plan(bind(db.catalog, parse_select(sql)))
            assert whatif_plan.total_cost == pytest.approx(real_plan.total_cost)

    def test_hypothetical_indexes_used_reporting(self, db):
        session = WhatIfSession(db.catalog)
        session.add_index("people", ("person_id",), name="w1")
        used = session.hypothetical_indexes_used(
            "select age from people where person_id = 5"
        )
        assert used == ["w1"]
        assert session.hypothetical_indexes_used(
            "select count(*) from people"
        ) == []


class TestRelevantInvalidation:
    """A cached plan is replanned when, and only when, an index that
    gives its query an access path moved; either way the plan equals
    fresh planning under the session's design."""

    JOIN = (
        "select q.weight from people p, pets q "
        "where p.person_id = q.owner_id and q.species = 'cat'"
    )

    def step(self, session, sql, mutate):
        """Plan ``sql``, apply ``mutate``, plan again; the replan count
        (0 or 1) and the second plan, checked against fresh planning."""
        session.plan(sql)
        before = serving_indexes(session, sql)
        mutate()
        misses = session.plan_cache_misses
        plan = session.plan(sql)
        fresh = Planner(session.catalog, session.config).plan(
            bind(session.catalog, parse_select(sql))
        )
        assert plan.total_cost == fresh.total_cost
        assert plan_signature(plan) == plan_signature(fresh)
        replans = session.plan_cache_misses - misses
        assert replans == int(serving_indexes(session, sql) != before)
        return replans, plan

    def test_unmatched_leading_column_does_not_replan(self, session):
        sql = "select age from people where city = 'oslo'"
        replans, _ = self.step(
            session, sql, lambda: session.add_index("people", ("height", "city"))
        )
        assert replans == 0
        assert session.hypothetical_indexes_used(sql) == []

    def test_parameterized_only_index_replans(self, session):
        replans, _ = self.step(
            session, self.JOIN,
            lambda: session.add_index("pets", ("owner_id",), name="w_owner"),
        )
        assert replans == 1
        rel = session.planner().prepare(
            bind(session.catalog, parse_select(self.JOIN))
        ).base_rels["q"]
        assert not index_usable(rel, ("owner_id",))

    def test_covering_index_without_restriction_replans(self, session):
        sql = "select age from people order by age"
        replans, _ = self.step(
            session, sql, lambda: session.add_index("people", ("age",), name="w_age")
        )
        assert replans == 1
        assert session.hypothetical_indexes_used(sql) == ["w_age"]

    def test_readding_under_a_new_name_replans(self, session):
        sql = "select age from people where person_id = 5"
        session.add_index("people", ("person_id",), name="w1")
        assert session.hypothetical_indexes_used(sql) == ["w1"]

        def rename():
            session.drop_index("w1")
            session.add_index("people", ("person_id",), name="w2")

        replans, _ = self.step(session, sql, rename)
        assert replans == 1
        assert session.hypothetical_indexes_used(sql) == ["w2"]

    def test_unrelated_drop_keeps_the_plan(self, session):
        sql = "select age from people where person_id = 5"
        session.add_index("people", ("person_id",), name="w1")
        session.add_index("people", ("nickname",), name="w_nick")
        replans, plan = self.step(
            session, sql, lambda: session.drop_index("w_nick")
        )
        assert replans == 0
        assert session.plan(sql) is plan

    def test_switching_a_flag_back_keeps_the_plans(self, session):
        queries = [self.JOIN, "select age from people where person_id = 5"]
        session.add_index("people", ("person_id",), name="w1")
        plans = [session.plan(sql) for sql in queries]
        session.set_join_flags(enable_hashjoin=False)
        session.set_join_flags(enable_hashjoin=True)
        misses = session.plan_cache_misses
        for sql, plan in zip(queries, plans):
            assert session.plan(sql) is plan
        assert session.plan_cache_misses == misses


class TestWhatIfTables:
    def test_partition_shell_registered(self, session):
        shell = session.add_partition_table("people", ("age", "height"), "people_ah")
        assert session.catalog.has_table("people_ah")
        assert shell.column_names == ("person_id", "age", "height")
        # Parser/binder must recognize the shell (paper: "the query
        # parser recognizes the new tables").
        cost = session.cost("select age from people_ah where age > 50")
        assert cost > 0

    def test_partition_cheaper_than_parent_scan(self, session):
        session.add_partition_table("people", ("age",), "people_age")
        full = session.cost("select age from people where age > 50")
        frag = session.cost("select age from people_age where age > 50")
        assert frag < full

    def test_stats_derivation(self, db):
        parent = db.catalog.table("people")
        parent_stats = db.catalog.statistics("people")
        shell = make_partition_shell(parent, ("age",), "f")
        stats = derive_partition_stats(parent, parent_stats, shell)
        assert stats.table.row_count == parent_stats.table.row_count
        assert stats.table.page_count < parent_stats.table.page_count
        assert stats.column("age") == parent_stats.column("age")

    def test_shell_requires_known_columns(self, db):
        parent = db.catalog.table("people")
        with pytest.raises(WhatIfError):
            make_partition_shell(parent, ("ghost",), "f")
        with pytest.raises(WhatIfError):
            make_partition_shell(parent, (), "f")

    def test_drop_table(self, session):
        session.add_partition_table("people", ("age",), "people_age")
        session.drop_table("people_age")
        assert not session.catalog.has_table("people_age")


class TestWhatIfJoins:
    def test_flag_toggling_changes_plans(self, db):
        session = WhatIfSession(db.catalog)
        session.add_index("people", ("person_id",), name="w1")
        sql = (
            "select p.age from people p, pets q "
            "where p.person_id = q.owner_id and q.weight > 39.9"
        )
        nl_plan = session.plan(sql)
        session.set_join_flags(enable_nestloop=False)
        no_nl_plan = session.plan(sql)
        assert plan_signature(nl_plan) != plan_signature(no_nl_plan)

    def test_unknown_flag_rejected(self, session):
        with pytest.raises(WhatIfError):
            session.set_join_flags(enable_warp_drive=True)


class TestSimulationAccounting:
    def test_simulation_time_recorded(self, session):
        session.add_index("people", ("age",))
        session.add_partition_table("people", ("age",), "people_age")
        assert session.simulation_seconds > 0
        assert session.simulation_seconds < 0.5  # and it is tiny
