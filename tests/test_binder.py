"""Unit tests for name resolution."""

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.datatypes import DOUBLE, INTEGER, TEXT
from repro.catalog.schema import make_table
from repro.errors import BindError
from repro.sql.ast_nodes import ColumnRef, FuncCall
from repro.sql.binder import bind
from repro.sql.parser import parse_select


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.add_table(
        make_table("t", [("id", INTEGER), ("a", DOUBLE), ("b", TEXT)], primary_key="id")
    )
    cat.add_table(
        make_table("u", [("id", INTEGER), ("c", DOUBLE)], primary_key="id")
    )
    return cat


def bq(catalog, sql):
    return bind(catalog, parse_select(sql))


class TestResolution:
    def test_unqualified_unique_column(self, catalog):
        q = bq(catalog, "select a from t")
        assert q.statement.targets[0].expr == ColumnRef("a", table="t")

    def test_qualified_column(self, catalog):
        q = bq(catalog, "select t.a from t")
        assert q.statement.targets[0].expr.table == "t"

    def test_alias_binding(self, catalog):
        q = bq(catalog, "select x.a from t x")
        assert q.rels[0].alias == "x"
        assert q.statement.targets[0].expr.table == "x"

    def test_ambiguous_column_rejected(self, catalog):
        with pytest.raises(BindError, match="ambiguous"):
            bq(catalog, "select id from t, u")

    def test_unknown_column(self, catalog):
        with pytest.raises(BindError):
            bq(catalog, "select zzz from t")

    def test_unknown_table(self, catalog):
        with pytest.raises(BindError):
            bq(catalog, "select a from ghost")

    def test_unknown_alias_qualifier(self, catalog):
        with pytest.raises(BindError):
            bq(catalog, "select q.a from t")

    def test_wrong_table_for_column(self, catalog):
        with pytest.raises(BindError):
            bq(catalog, "select u.a from t, u")

    def test_duplicate_alias_rejected(self, catalog):
        with pytest.raises(BindError):
            bq(catalog, "select 1 from t x, u x")

    def test_self_join_aliases(self, catalog):
        q = bq(catalog, "select p.a, q.a from t p, t q where p.id = q.id")
        assert q.aliases == ("p", "q")


class TestStarExpansion:
    def test_bare_star(self, catalog):
        q = bq(catalog, "select * from t")
        assert [t.expr.column for t in q.statement.targets] == ["id", "a", "b"]

    def test_qualified_star(self, catalog):
        q = bq(catalog, "select u.* from t, u")
        assert [t.expr.column for t in q.statement.targets] == ["id", "c"]

    def test_star_in_count_allowed(self, catalog):
        q = bq(catalog, "select count(*) from t")
        assert isinstance(q.statement.targets[0].expr, FuncCall)

    def test_star_with_unknown_alias(self, catalog):
        with pytest.raises(BindError):
            bq(catalog, "select x.* from t")


class TestOutputAliases:
    def test_order_by_select_alias(self, catalog):
        q = bq(catalog, "select avg(a) as m from t group by b order by m desc")
        sort_expr = q.statement.order_by[0].expr
        assert isinstance(sort_expr, FuncCall) and sort_expr.name == "avg"

    def test_group_by_select_alias(self, catalog):
        q = bq(catalog, "select b as label, count(*) from t group by label")
        assert q.statement.group_by[0] == ColumnRef("b", table="t")

    def test_having_alias(self, catalog):
        q = bq(catalog, "select count(*) as n from t group by b having n > 2")
        assert isinstance(q.statement.having.left, FuncCall)


class TestRequiredColumns:
    def test_collects_all_clauses(self, catalog):
        q = bq(
            catalog,
            "select t.a from t, u where t.id = u.id and u.c > 1 "
            "group by t.a order by t.b",
        )
        assert q.required_columns["t"] == frozenset({"a", "id", "b"})
        assert q.required_columns["u"] == frozenset({"id", "c"})

    def test_quals_split(self, catalog):
        q = bq(catalog, "select a from t where a > 1 and b = 'x' and id < 5")
        assert len(q.quals) == 3


class TestColumnDtype:
    def test_rel_lookup_error(self, catalog):
        q = bq(catalog, "select a from t")
        with pytest.raises(BindError):
            q.rel("nope")
