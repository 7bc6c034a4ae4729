"""Clause classification and index-matching normalization.

The planner works with WHERE conjuncts in three roles: single-relation
restrictions (drive selectivity and index matching), equi-join clauses
(drive join ordering, hash/merge keys, and parameterized index scans),
and everything else (generic join filters). This module classifies
bound expressions into those roles and normalizes restrictions into
*index clauses* — (column, operator, constants) triples a B-Tree can
serve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sql.ast_nodes import (
    BetweenExpr,
    BinaryOp,
    ColumnRef,
    Expr,
    InExpr,
    LikeExpr,
    Literal,
    referenced_tables,
)

_COMPARISONS = {"=", "<", "<=", ">", ">=", "<>"}
# Operators a B-Tree can use to bound a scan.
_INDEXABLE_OPS = {"=", "<", "<=", ">", ">="}
_FLIP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<=", "<>": "<>"}


@dataclass(frozen=True)
class IndexClause:
    """A restriction in B-Tree-servable normal form.

    ``op`` is one of ``=``, ``<``, ``<=``, ``>``, ``>=``, ``between``,
    ``in``, ``like_prefix``. For ``between``, ``values`` is ``(low,
    high)``; for ``in``, the tuple of constants; for ``like_prefix``,
    the literal prefix; otherwise a 1-tuple with the comparison constant.
    """

    alias: str
    column: str
    op: str
    values: tuple[Any, ...]

    @property
    def is_equality(self) -> bool:
        return self.op == "="


@dataclass(frozen=True)
class ClassifiedClause:
    """One WHERE conjunct plus its planner-facing classification."""

    expr: Expr
    rels: frozenset[str]
    index_clause: IndexClause | None = None
    # Populated for binary equi-join clauses (a.x = b.y):
    equi_join: tuple[tuple[str, str], tuple[str, str]] | None = None

    @property
    def is_restriction(self) -> bool:
        return len(self.rels) <= 1

    @property
    def single_alias(self) -> str | None:
        if len(self.rels) == 1:
            return next(iter(self.rels))
        return None


def classify(expr: Expr) -> ClassifiedClause:
    """Classify one conjunct of a bound WHERE clause."""
    rels = frozenset(referenced_tables(expr))
    if len(rels) == 1:
        alias = next(iter(rels))
        return ClassifiedClause(
            expr=expr, rels=rels, index_clause=extract_index_clause(expr, alias)
        )
    if len(rels) == 2:
        equi = _extract_equi_join(expr)
        return ClassifiedClause(expr=expr, rels=rels, equi_join=equi)
    return ClassifiedClause(expr=expr, rels=rels)


def classify_all(quals: tuple[Expr, ...]) -> list[ClassifiedClause]:
    return [classify(q) for q in quals]


def _extract_equi_join(
    expr: Expr,
) -> tuple[tuple[str, str], tuple[str, str]] | None:
    """Match ``a.x = b.y`` (both sides bare columns of distinct rels)."""
    if not (isinstance(expr, BinaryOp) and expr.op == "="):
        return None
    left, right = expr.left, expr.right
    if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
        return None
    if left.table is None or right.table is None or left.table == right.table:
        return None
    return ((left.table, left.column), (right.table, right.column))


def extract_index_clause(expr: Expr, alias: str) -> IndexClause | None:
    """Normalize a single-relation conjunct into an :class:`IndexClause`.

    Returns None for forms a B-Tree cannot bound (ORs, <>, arithmetic on
    the column, IS NULL, non-prefix LIKE) — those still *filter*, they
    just cannot drive an index scan.
    """
    if isinstance(expr, BinaryOp) and expr.op in _COMPARISONS:
        column, op, value = _normalize_comparison(expr)
        if column is not None and op in _INDEXABLE_OPS:
            return IndexClause(alias=alias, column=column, op=op, values=(value,))
        return None
    if isinstance(expr, BetweenExpr) and not expr.negated:
        if (
            isinstance(expr.expr, ColumnRef)
            and isinstance(expr.low, Literal)
            and isinstance(expr.high, Literal)
        ):
            return IndexClause(
                alias=alias,
                column=expr.expr.column,
                op="between",
                values=(expr.low.value, expr.high.value),
            )
        return None
    if isinstance(expr, InExpr) and not expr.negated:
        if isinstance(expr.expr, ColumnRef) and all(
            isinstance(i, Literal) for i in expr.items
        ):
            values = tuple(item.value for item in expr.items)  # type: ignore[union-attr]
            return IndexClause(
                alias=alias, column=expr.expr.column, op="in", values=values
            )
        return None
    if isinstance(expr, LikeExpr) and not expr.negated:
        if isinstance(expr.expr, ColumnRef) and isinstance(expr.pattern, Literal):
            prefix = like_prefix(str(expr.pattern.value))
            if prefix:
                return IndexClause(
                    alias=alias,
                    column=expr.expr.column,
                    op="like_prefix",
                    values=(prefix,),
                )
        return None
    return None


def _normalize_comparison(expr: BinaryOp) -> tuple[str | None, str, Any]:
    """Put ``column op constant`` with the column on the left."""
    left, right = expr.left, expr.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left.column, expr.op, right.value
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        return right.column, _FLIP[expr.op], left.value
    return None, expr.op, None


def like_prefix(pattern: str) -> str | None:
    """The literal prefix of a LIKE pattern, or None if it starts with a
    wildcard (non-anchored patterns cannot use a B-Tree)."""
    prefix_chars: list[str] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch in ("%", "_"):
            break
        if ch == "\\" and i + 1 < len(pattern):
            prefix_chars.append(pattern[i + 1])
            i += 2
            continue
        prefix_chars.append(ch)
        i += 1
    prefix = "".join(prefix_chars)
    return prefix or None


def prefix_upper_bound(prefix: str) -> str:
    """Smallest string greater than every string with ``prefix``.

    Increments the last character; used to turn ``LIKE 'abc%'`` into the
    range ``['abc', 'abd')`` the way PostgreSQL's ``make_greater_string``
    does.
    """
    chars = list(prefix)
    while chars:
        code = ord(chars[-1])
        if code < 0x10FFFF:
            chars[-1] = chr(code + 1)
            return "".join(chars)
        chars.pop()
    return "￿"
