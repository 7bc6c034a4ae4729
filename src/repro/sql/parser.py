"""Recursive-descent parser for the supported SELECT subset.

Grammar (informal)::

    select    := SELECT [DISTINCT] targets FROM from_list
                 [WHERE expr] [GROUP BY expr_list [HAVING expr]]
                 [ORDER BY sort_list] [LIMIT n]
    targets   := '*' | target (',' target)*
    target    := expr [[AS] ident]
    from_list := from_item (',' from_item)*
    from_item := table_ref ( [INNER] JOIN table_ref ON expr )*
    table_ref := ident [[AS] ident]
    expr      := or_expr with standard precedence:
                 OR < AND < NOT < comparison/BETWEEN/IN/LIKE/IS < add < mul < unary

``JOIN ... ON`` is normalized away: joined tables are appended to the
statement's table list and ON conditions are ANDed into WHERE, which is
equivalent for inner joins and keeps the optimizer's input uniform.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql.ast_nodes import (
    BetweenExpr,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    SelectItem,
    SelectStmt,
    SortItem,
    Star,
    TableRef,
    UnaryOp,
    conjoin,
)
from repro.sql.tokenizer import Token, TokenType, tokenize

_COMPARISON_OPS = {"=", "<", ">", "<=", ">=", "<>", "!="}


class _Parser:
    """Token-stream cursor with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- cursor helpers -------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def accept_keyword(self, *names: str) -> bool:
        if self.current.is_keyword(*names):
            self.advance()
            return True
        return False

    def expect_keyword(self, name: str) -> None:
        if not self.accept_keyword(name):
            raise ParseError(f"expected {name.upper()}, found {self.current.value!r}")

    def accept_punct(self, value: str) -> bool:
        token = self.current
        if token.type is TokenType.PUNCT and token.value == value:
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.accept_punct(value):
            raise ParseError(f"expected {value!r}, found {self.current.value!r}")

    def accept_operator(self, *values: str) -> str | None:
        token = self.current
        if token.type is TokenType.OPERATOR and token.value in values:
            self.advance()
            return token.value
        return None

    def expect_ident(self) -> str:
        token = self.current
        if token.type is TokenType.IDENT:
            self.advance()
            return token.value
        # Unreserved keywords double as identifiers (e.g. a column "count"
        # would be unusual, but aggregate names appear as functions only).
        raise ParseError(f"expected identifier, found {token.value!r}")

    # -- statement ------------------------------------------------------

    def parse_select(self) -> SelectStmt:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        targets = self._parse_targets()
        self.expect_keyword("from")
        tables, join_conds = self._parse_from_list()

        where = None
        if self.accept_keyword("where"):
            where = self._parse_expr()
        where = conjoin(join_conds + ([where] if where is not None else []))

        group_by: tuple[Expr, ...] = ()
        having = None
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by = tuple(self._parse_expr_list())
            if self.accept_keyword("having"):
                having = self._parse_expr()

        order_by: tuple[SortItem, ...] = ()
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by = tuple(self._parse_sort_list())

        limit = None
        if self.accept_keyword("limit"):
            token = self.current
            if token.type is not TokenType.NUMBER:
                raise ParseError(f"LIMIT expects a number, found {token.value!r}")
            self.advance()
            try:
                limit = int(float(token.value))
            except OverflowError:  # "1e999" is a well-formed number
                raise ParseError(f"LIMIT out of range: {token.value}") from None

        self.accept_punct(";")
        if self.current.type is not TokenType.EOF:
            raise ParseError(f"unexpected trailing input: {self.current.value!r}")
        return SelectStmt(
            targets=targets,
            tables=tuple(tables),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_targets(self) -> tuple[SelectItem, ...]:
        items: list[SelectItem] = [self._parse_target()]
        while self.accept_punct(","):
            items.append(self._parse_target())
        return tuple(items)

    def _parse_target(self) -> SelectItem:
        expr = self._parse_expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.type is TokenType.IDENT:
            alias = self.expect_ident()
        return SelectItem(expr=expr, alias=alias)

    def _parse_from_list(self) -> tuple[list[TableRef], list[Expr]]:
        tables: list[TableRef] = []
        join_conds: list[Expr] = []
        self._parse_from_item(tables, join_conds)
        while self.accept_punct(","):
            self._parse_from_item(tables, join_conds)
        return tables, join_conds

    def _parse_from_item(self, tables: list[TableRef], join_conds: list[Expr]) -> None:
        tables.append(self._parse_table_ref())
        while True:
            if self.accept_keyword("inner"):
                self.expect_keyword("join")
            elif not self.accept_keyword("join"):
                break
            tables.append(self._parse_table_ref())
            self.expect_keyword("on")
            join_conds.append(self._parse_expr())

    def _parse_table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.type is TokenType.IDENT:
            alias = self.expect_ident()
        return TableRef(name=name, alias=alias)

    def _parse_sort_list(self) -> list[SortItem]:
        items = [self._parse_sort_item()]
        while self.accept_punct(","):
            items.append(self._parse_sort_item())
        return items

    def _parse_sort_item(self) -> SortItem:
        expr = self._parse_expr()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return SortItem(expr=expr, descending=descending)

    def _parse_expr_list(self) -> list[Expr]:
        items = [self._parse_expr()]
        while self.accept_punct(","):
            items.append(self._parse_expr())
        return items

    # -- expressions ----------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.accept_keyword("or"):
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.accept_keyword("and"):
            left = BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self.accept_keyword("not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()

        negated = False
        if self.current.is_keyword("not"):
            # lookahead: NOT BETWEEN / NOT IN / NOT LIKE
            nxt = self._tokens[self._pos + 1]
            if nxt.is_keyword("between", "in", "like"):
                self.advance()
                negated = True

        if self.accept_keyword("between"):
            low = self._parse_additive()
            self.expect_keyword("and")
            high = self._parse_additive()
            return BetweenExpr(expr=left, low=low, high=high, negated=negated)
        if self.accept_keyword("in"):
            self.expect_punct("(")
            items = [self._parse_expr()]
            while self.accept_punct(","):
                items.append(self._parse_expr())
            self.expect_punct(")")
            return InExpr(expr=left, items=tuple(items), negated=negated)
        if self.accept_keyword("like"):
            return LikeExpr(expr=left, pattern=self._parse_additive(), negated=negated)
        if self.accept_keyword("is"):
            is_negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return IsNullExpr(expr=left, negated=is_negated)

        op = self.accept_operator(*_COMPARISON_OPS)
        if op is not None:
            if op == "!=":
                op = "<>"
            return BinaryOp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            op = self.accept_operator("+", "-", "||")
            if op is None:
                return left
            left = BinaryOp(op, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            op = self.accept_operator("*", "/", "%")
            if op is None:
                return left
            left = BinaryOp(op, left, self._parse_unary())

    def _parse_unary(self) -> Expr:
        if self.accept_operator("-"):
            operand = self._parse_unary()
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            return UnaryOp("-", operand)
        self.accept_operator("+")
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.current

        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            value = float(text) if any(c in text for c in ".eE") else int(text)
            return Literal(value)
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.is_keyword("null"):
            self.advance()
            return Literal(None)
        if token.is_keyword("true"):
            self.advance()
            return Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return Literal(False)
        if token.type is TokenType.OPERATOR and token.value == "*":
            self.advance()
            return Star()
        if self.accept_punct("("):
            expr = self._parse_expr()
            self.expect_punct(")")
            return expr
        if token.is_keyword("count", "sum", "avg", "min", "max"):
            return self._parse_func_call(token.value)
        if token.type is TokenType.IDENT:
            return self._parse_ident_expr()
        raise ParseError(f"unexpected token {token.value!r} in expression")

    def _parse_func_call(self, name: str) -> Expr:
        self.advance()
        self.expect_punct("(")
        distinct = self.accept_keyword("distinct")
        args: list[Expr] = []
        if not self.accept_punct(")"):
            args.append(self._parse_expr())
            while self.accept_punct(","):
                args.append(self._parse_expr())
            self.expect_punct(")")
        return FuncCall(name=name, args=tuple(args), distinct=distinct)

    def _parse_ident_expr(self) -> Expr:
        name = self.expect_ident()
        # Scalar function call: ident(...)
        if self.current.type is TokenType.PUNCT and self.current.value == "(":
            return self._parse_func_call_with_name(name)
        if self.accept_punct("."):
            if self.current.type is TokenType.OPERATOR and self.current.value == "*":
                self.advance()
                return Star(table=name)
            column = self.expect_ident()
            return ColumnRef(column=column, table=name)
        return ColumnRef(column=name)

    def _parse_func_call_with_name(self, name: str) -> Expr:
        self.expect_punct("(")
        args: list[Expr] = []
        if not self.accept_punct(")"):
            args.append(self._parse_expr())
            while self.accept_punct(","):
                args.append(self._parse_expr())
            self.expect_punct(")")
        return FuncCall(name=name.lower(), args=tuple(args))


def parse_select(sql: str) -> SelectStmt:
    """Parse one SELECT statement from ``sql``.

    Raises:
        TokenizeError: on lexical errors.
        ParseError: when the statement is outside the supported grammar.
    """
    return _Parser(tokenize(sql)).parse_select()
