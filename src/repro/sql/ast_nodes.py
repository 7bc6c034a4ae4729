"""Abstract syntax tree for the supported SELECT subset.

All nodes are frozen dataclasses, so bound queries and rewritten queries
can share subtrees safely. Expression nodes implement ``children()`` so
generic walks (column collection, rewriting) need no per-node code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator


class Expr:
    """Base class for expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string, boolean, or NULL (``value is None``)."""

    value: Any


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference, e.g. ``p.ra`` or ``ra``."""

    column: str
    table: str | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``t.*`` in a select list or ``count(*)``."""

    table: str | None = None


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operator: comparisons, arithmetic, AND/OR, ``||``."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operator: ``NOT`` or arithmetic negation."""

    op: str
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class FuncCall(Expr):
    """Function call; ``count``, ``sum``, ``avg``, ``min``, ``max`` are
    aggregates, everything else is a scalar function."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})

    @property
    def is_aggregate(self) -> bool:
        return self.name in self.AGGREGATES

    def children(self) -> tuple[Expr, ...]:
        return self.args


@dataclass(frozen=True)
class BetweenExpr(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.expr, self.low, self.high)


@dataclass(frozen=True)
class InExpr(Expr):
    """``expr [NOT] IN (item, ...)`` with literal items only."""

    expr: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.expr,) + self.items


@dataclass(frozen=True)
class LikeExpr(Expr):
    """``expr [NOT] LIKE pattern``."""

    expr: Expr
    pattern: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.expr, self.pattern)


@dataclass(frozen=True)
class IsNullExpr(Expr):
    """``expr IS [NOT] NULL``."""

    expr: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class SelectItem:
    """One entry of the select list."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class SortItem:
    """One entry of ORDER BY."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause table with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SelectStmt:
    """A parsed SELECT statement.

    ``JOIN ... ON`` syntax is flattened at parse time: joined tables land
    in ``tables`` and their ON conditions are ANDed into ``where``. Only
    inner joins are supported, which covers the paper's analytic
    workloads.
    """

    targets: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...]
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[SortItem, ...] = ()
    limit: int | None = None
    distinct: bool = False


def conjuncts(expr: Expr | None) -> list[Expr]:
    """Split an expression on top-level ANDs into a flat conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(exprs: list[Expr]) -> Expr | None:
    """Combine conjuncts back into a single AND tree (None if empty)."""
    if not exprs:
        return None
    result = exprs[0]
    for nxt in exprs[1:]:
        result = BinaryOp("and", result, nxt)
    return result


def referenced_tables(expr: Expr) -> set[str]:
    """All table qualifiers mentioned in ``expr`` (bound queries only)."""
    names: set[str] = set()
    for node in expr.walk():
        if isinstance(node, ColumnRef) and node.table:
            names.add(node.table)
        elif isinstance(node, Star) and node.table:
            names.add(node.table)
    return names
