"""Access-path generation unit tests."""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Index
from repro.optimizer.clauses import classify_all
from repro.optimizer.config import IndexInfo, PlannerConfig, default_relation_info
from repro.optimizer.paths import (
    build_base_rel,
    equi_join_columns,
    index_paths,
    index_serves,
    index_usable,
    match_index,
    parameterized_index_paths,
    parameterized_usable,
    seqscan_path,
)
from repro.sql.binder import bind
from repro.sql.parser import parse_select

from tests.conftest import make_people_db

CONFIG = PlannerConfig()


@pytest.fixture(scope="module")
def db():
    database = make_people_db(rows=2000, seed=53)
    database.create_index(Index("ix_age", "people", ("age",)))
    database.create_index(Index("ix_city_age", "people", ("city", "age")))
    database.create_index(Index("ix_city_age_h", "people", ("city", "age", "height")))
    database.create_index(Index("ix_owner", "pets", ("owner_id",)))
    return database


def prepare(db, sql, alias="people"):
    query = bind(db.catalog, parse_select(sql))
    classified = classify_all(query.quals)
    restrictions = [c for c in classified if c.single_alias == alias]
    joins = [c for c in classified if len(c.rels) > 1]
    info = default_relation_info(
        CONFIG, db.catalog, query.rel(alias).table.name
    )
    rel = build_base_rel(
        CONFIG, alias, info, restrictions, query.required_columns[alias]
    )
    return rel, joins, info


class TestMatchIndex:
    def find(self, info, name):
        return next(ix for ix in info.indexes if ix.name == name)

    def test_eq_prefix_then_range(self, db):
        rel, _j, info = prepare(
            db, "select person_id from people where city = 'oslo' and age > 50"
        )
        match = match_index(self.find(info, "ix_city_age"), rel)
        assert match is not None
        assert len(match.matched) == 2

    def test_range_stops_the_prefix(self, db):
        rel, _j, info = prepare(
            db,
            "select person_id from people "
            "where city > 'a' and age = 5 and height = 170",
        )
        match = match_index(self.find(info, "ix_city_age_h"), rel)
        # city is a range -> matching must stop after it.
        assert len(match.matched) == 1

    def test_no_leading_column_no_match(self, db):
        rel, _j, info = prepare(
            db, "select person_id from people where age = 5"
        )
        assert match_index(self.find(info, "ix_city_age"), rel) is None

    def test_selectivity_product(self, db):
        rel, _j, info = prepare(
            db, "select person_id from people where city = 'oslo' and age = 30"
        )
        single = match_index(self.find(info, "ix_age"), rel)
        double = match_index(self.find(info, "ix_city_age"), rel)
        assert double.index_selectivity < single.index_selectivity


class TestIndexPaths:
    def test_paths_for_matching_indexes_only(self, db):
        rel, _j, _info = prepare(
            db, "select person_id from people where age = 30"
        )
        paths = index_paths(CONFIG, rel)
        names = {p.index_name for p in paths}
        assert "ix_age" in names
        assert "ix_owner" not in names

    def test_index_only_flag(self, db):
        rel, _j, _info = prepare(
            db, "select count(*) from people where city = 'oslo' and age > 10"
        )
        paths = index_paths(CONFIG, rel)
        by_name = {p.index_name: p for p in paths}
        assert by_name["ix_city_age"].index_only
        assert not by_name["ix_age"].index_only

    def test_out_order_reflects_key(self, db):
        rel, _j, _info = prepare(
            db, "select person_id from people where age > 90"
        )
        path = next(p for p in index_paths(CONFIG, rel) if p.index_name == "ix_age")
        assert path.out_order == (("people", "age"),)

    def test_in_clause_kills_order(self, db):
        rel, _j, _info = prepare(
            db, "select person_id from people where age in (1, 2, 3)"
        )
        path = next(p for p in index_paths(CONFIG, rel) if p.index_name == "ix_age")
        assert path.out_order == ()

    def test_seqscan_rows_match_restriction_product(self, db):
        rel, _j, _info = prepare(
            db, "select person_id from people where age = 30 and city = 'oslo'"
        )
        scan = seqscan_path(CONFIG, rel)
        assert scan.rows == rel.rows
        assert len(scan.filter_quals) == 2


PEOPLE_COLUMNS = ("person_id", "age", "height", "city", "nickname")
PEOPLE_RESTRICTIONS = (
    "age > 50", "age = 30", "age between 20 and 30", "age in (1, 2, 3)",
    "city = 'oslo'", "city like 'o%'", "height < 170", "person_id = 7",
    "nickname is null", "age + 1 > 3", "age = 1 or city = 'lima'",
)


class TestIndexUsable:
    """``index_usable`` is exactly the old rule of ``index_paths``: a
    restriction matches a key prefix, or the key covers the query."""

    @settings(max_examples=150, deadline=None)
    @given(
        restrictions=st.sets(st.sampled_from(PEOPLE_RESTRICTIONS), max_size=3),
        targets=st.sets(st.sampled_from(PEOPLE_COLUMNS), max_size=3),
        key=st.lists(
            st.sampled_from(PEOPLE_COLUMNS), min_size=1, max_size=3, unique=True
        ),
    )
    def test_path_iff_usable(self, db, restrictions, targets, key):
        select = ", ".join(sorted(targets)) or "count(*)"
        sql = f"select {select} from people"
        if restrictions:
            sql += " where " + " and ".join(sorted(restrictions))
        rel, _j, info = prepare(db, sql)
        index = IndexInfo(
            definition=Index("probe", "people", tuple(key), hypothetical=True),
            leaf_pages=10,
            height=1,
            index_tuples=info.row_count,
        )
        rel = replace(rel, info=replace(info, indexes=(index,)))
        usable = index_usable(rel, index.columns)
        assert usable == (
            match_index(index, rel) is not None
            or rel.required_columns <= set(key)
        )
        assert len(index_paths(CONFIG, rel)) == int(usable)


JOINS = ("p.person_id = q.owner_id", "p.age = q.pet_id", "p.height = q.weight")


class TestIndexServes:
    """``index_serves`` is exactly "path generation builds a path on this
    index": a plain scan (``index_usable``) or a nested-loop inner whose
    key prefix is local equalities ending on an equi-join column. The
    parameterized side is checked against the generator with its
    ``parameterized_usable`` gate lifted, so the gate drops no path."""

    @settings(max_examples=150, deadline=None)
    @given(
        restrictions=st.sets(st.sampled_from(PEOPLE_RESTRICTIONS), max_size=3),
        joins=st.sets(st.sampled_from(JOINS), min_size=1, max_size=2),
        targets=st.sets(st.sampled_from(PEOPLE_COLUMNS), max_size=2),
        key=st.lists(
            st.sampled_from(PEOPLE_COLUMNS), min_size=1, max_size=3, unique=True
        ),
    )
    def test_serves_iff_a_path_is_built(self, db, restrictions, joins, targets, key):
        select = ", ".join(f"p.{c}" for c in sorted(targets)) or "count(*)"
        where = " and ".join(sorted(joins) + sorted(restrictions))
        sql = f"select {select} from people p, pets q where {where}"
        rel, join_clauses, info = prepare(db, sql, alias="p")
        index = IndexInfo(
            definition=Index("probe", "people", tuple(key), hypothetical=True),
            leaf_pages=10,
            height=1,
            index_tuples=info.row_count,
        )
        rel = replace(rel, info=replace(info, indexes=(index,)))
        join_columns = equi_join_columns("p", join_clauses)
        with mock.patch(
            "repro.optimizer.paths.parameterized_usable", return_value=True
        ):
            parameterized = parameterized_index_paths(CONFIG, rel, join_clauses)
        assert parameterized_usable(rel, index.columns, join_columns) == bool(
            parameterized
        )
        assert parameterized_index_paths(CONFIG, rel, join_clauses) == parameterized
        assert index_serves(rel, index.columns, join_columns) == bool(
            index_paths(CONFIG, rel) or parameterized
        )

    def test_equi_join_columns(self, db):
        _rel, join_clauses, _info = prepare(
            db,
            "select p.age from people p, pets q "
            "where p.person_id = q.owner_id and p.age = q.pet_id "
            "and p.height < q.weight",
            alias="p",
        )
        assert equi_join_columns("p", join_clauses) == {"person_id", "age"}
        assert equi_join_columns("q", join_clauses) == {"owner_id", "pet_id"}


class TestParameterizedPaths:
    def test_join_column_bound(self, db):
        rel, joins, _info = prepare(
            db,
            "select q.weight from people p, pets q where p.person_id = q.owner_id",
            alias="q",
        )
        paths = parameterized_index_paths(CONFIG, rel, joins)
        assert len(paths) == 1
        path = paths[0]
        assert path.index_name == "ix_owner"
        assert path.param_rels == frozenset({"p"})
        assert path.ref_quals[0][0] == "owner_id"

    def test_no_join_no_param_paths(self, db):
        rel, joins, _info = prepare(
            db, "select person_id from people where age = 1"
        )
        assert parameterized_index_paths(CONFIG, rel, joins) == []

    def test_rescan_cheaper_than_first_run(self, db):
        rel, joins, _info = prepare(
            db,
            "select q.weight from people p, pets q where p.person_id = q.owner_id",
            alias="q",
        )
        path = parameterized_index_paths(CONFIG, rel, joins)[0]
        assert path.rescan_cost <= path.total_cost

    def test_use_correlation_off_prices_at_zero_correlation(self, db):
        rel, joins, info = prepare(
            db,
            "select q.weight from people p, pets q where p.person_id = q.owner_id",
            alias="q",
        )

        def with_correlation(value):
            stats = replace(info.stats_for("owner_id"), correlation=value)
            columns = {**info.column_stats, "owner_id": stats}
            return replace(rel, info=replace(info, column_stats=columns))

        correlated, flat = with_correlation(0.9), with_correlation(0.0)
        off = PlannerConfig(use_correlation=False)
        [path] = parameterized_index_paths(off, correlated, joins)
        [expected] = parameterized_index_paths(CONFIG, flat, joins)
        assert (path.total_cost, path.rescan_cost) == (
            expected.total_cost,
            expected.rescan_cost,
        )
        # ...and the correlation does move the price when it is used.
        [used] = parameterized_index_paths(CONFIG, correlated, joins)
        assert used.total_cost != path.total_cost
