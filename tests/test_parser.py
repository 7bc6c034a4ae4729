"""Unit tests for the SELECT parser."""

import pytest

from repro.errors import ParseError, TokenizeError
from repro.sql.ast_nodes import (
    BetweenExpr,
    BinaryOp,
    ColumnRef,
    FuncCall,
    InExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    Star,
    UnaryOp,
    conjuncts,
)
from repro.sql.parser import parse_select


class TestTargets:
    def test_star(self):
        stmt = parse_select("select * from t")
        assert isinstance(stmt.targets[0].expr, Star)

    def test_qualified_star(self):
        stmt = parse_select("select t.* from t")
        assert stmt.targets[0].expr == Star(table="t")

    def test_aliases(self):
        stmt = parse_select("select a as x, b y from t")
        assert stmt.targets[0].alias == "x"
        assert stmt.targets[1].alias == "y"

    def test_arithmetic_target(self):
        stmt = parse_select("select a + b * 2 from t")
        expr = stmt.targets[0].expr
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "*"

    def test_aggregates(self):
        stmt = parse_select("select count(*), sum(x), avg(y), min(z), max(w) from t")
        names = [t.expr.name for t in stmt.targets]
        assert names == ["count", "sum", "avg", "min", "max"]
        assert isinstance(stmt.targets[0].expr.args[0], Star)

    def test_count_distinct(self):
        stmt = parse_select("select count(distinct x) from t")
        assert stmt.targets[0].expr.distinct

    def test_scalar_function(self):
        stmt = parse_select("select floor(x / 10) from t")
        expr = stmt.targets[0].expr
        assert isinstance(expr, FuncCall) and expr.name == "floor"


class TestFrom:
    def test_comma_join(self):
        stmt = parse_select("select * from a, b c, d as e")
        assert [(t.name, t.effective_alias) for t in stmt.tables] == [
            ("a", "a"), ("b", "c"), ("d", "e"),
        ]

    def test_join_on_flattened(self):
        stmt = parse_select("select * from a join b on a.x = b.y where a.z > 1")
        assert len(stmt.tables) == 2
        clauses = conjuncts(stmt.where)
        assert len(clauses) == 2  # ON condition merged with WHERE

    def test_inner_join_keyword(self):
        stmt = parse_select("select * from a inner join b on a.x = b.y")
        assert len(stmt.tables) == 2

    def test_chained_joins(self):
        stmt = parse_select(
            "select * from a join b on a.x = b.x join c on b.y = c.y"
        )
        assert len(stmt.tables) == 3
        assert len(conjuncts(stmt.where)) == 2


class TestWhere:
    def test_precedence_or_and(self):
        stmt = parse_select("select * from t where a = 1 or b = 2 and c = 3")
        assert isinstance(stmt.where, BinaryOp) and stmt.where.op == "or"
        assert stmt.where.right.op == "and"

    def test_not(self):
        stmt = parse_select("select * from t where not a = 1")
        assert isinstance(stmt.where, UnaryOp) and stmt.where.op == "not"

    def test_between(self):
        stmt = parse_select("select * from t where x between 1 and 2")
        assert isinstance(stmt.where, BetweenExpr)
        assert not stmt.where.negated

    def test_not_between(self):
        stmt = parse_select("select * from t where x not between 1 and 2")
        assert isinstance(stmt.where, BetweenExpr) and stmt.where.negated

    def test_between_binds_tighter_than_and(self):
        stmt = parse_select("select * from t where x between 1 and 2 and y = 3")
        assert isinstance(stmt.where, BinaryOp) and stmt.where.op == "and"
        assert isinstance(stmt.where.left, BetweenExpr)

    def test_in_list(self):
        stmt = parse_select("select * from t where x in (1, 2, 3)")
        assert isinstance(stmt.where, InExpr)
        assert [i.value for i in stmt.where.items] == [1, 2, 3]

    def test_not_in(self):
        stmt = parse_select("select * from t where x not in (1)")
        assert stmt.where.negated

    def test_like(self):
        stmt = parse_select("select * from t where name like 'M%'")
        assert isinstance(stmt.where, LikeExpr)
        assert stmt.where.pattern.value == "M%"

    def test_is_null_and_not_null(self):
        assert isinstance(
            parse_select("select * from t where x is null").where, IsNullExpr
        )
        stmt = parse_select("select * from t where x is not null")
        assert stmt.where.negated

    def test_comparison_normalizes_bang_equals(self):
        stmt = parse_select("select * from t where a != 1")
        assert stmt.where.op == "<>"

    def test_parenthesized(self):
        stmt = parse_select("select * from t where (a = 1 or b = 2) and c = 3")
        assert stmt.where.op == "and"
        assert stmt.where.left.op == "or"

    def test_negative_literal_folds(self):
        stmt = parse_select("select * from t where x > -5")
        assert stmt.where.right == Literal(-5)


class TestClauses:
    def test_group_by_having(self):
        stmt = parse_select(
            "select a, count(*) from t group by a having count(*) > 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_by_directions(self):
        stmt = parse_select("select a, b from t order by a desc, b asc, a + b")
        assert [s.descending for s in stmt.order_by] == [True, False, False]

    def test_limit(self):
        assert parse_select("select a from t limit 7").limit == 7

    def test_distinct(self):
        assert parse_select("select distinct a from t").distinct

    def test_trailing_semicolon(self):
        assert parse_select("select a from t;").limit is None


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "select",
            "select from t",
            "select a from",
            "select a from t where",
            "select a from t limit x",
            "select a from t limit 1e999",
            "select a from t order by",
            "select a from t group a",
            "select a from t extra junk",
            "select a, from t",
            "select a from t where x in ()",
            "select a from t join b",
        ],
    )
    def test_rejects(self, sql):
        with pytest.raises(ParseError):
            parse_select(sql)

    def test_column_named_like_keyword_rejected(self):
        with pytest.raises(ParseError):
            parse_select("select select from t")

    @pytest.mark.parametrize(
        "sql",
        [
            "select a from t where a < 1e",
            "select a from t where a < 2.5E-",
            "select a from t limit 1e+",
            "select a from t where a < ²",
        ],
    )
    def test_malformed_number_is_a_tokenize_error(self, sql):
        # Used to reach float()/int() and escape as a bare ValueError.
        with pytest.raises(TokenizeError):
            parse_select(sql)
