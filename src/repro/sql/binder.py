"""Name resolution: attach catalog metadata to a parsed statement.

The binder resolves every column reference to a unique range-table entry
(table alias), expands ``*``, and produces a :class:`BoundQuery` — the
optimizer's input. After binding, every :class:`ColumnRef` carries its
table alias, so downstream code never guesses scopes again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Table
from repro.errors import BindError
from repro.sql.ast_nodes import (
    ColumnRef,
    Expr,
    FuncCall,
    SelectItem,
    SelectStmt,
    Star,
    conjuncts,
    referenced_tables,
)
from repro.sql.transform import transform_expr, transform_statement


@dataclass(frozen=True)
class RangeTableEntry:
    """One FROM-clause relation: a unique alias bound to a catalog table."""

    alias: str
    table: Table


@dataclass(frozen=True)
class BoundQuery:
    """A fully-resolved query, ready for the optimizer.

    Attributes:
        statement: The statement with all column references qualified and
            stars expanded.
        rels: Range table, in FROM order; aliases are unique.
        quals: WHERE conjuncts (each an expression over qualified refs).
        required_columns: Per-alias set of columns the query touches
            anywhere (select list, quals, grouping, ordering) — the
            attribute-usage input for the AutoPart advisor and for
            index-only-scan decisions.
    """

    statement: SelectStmt
    rels: tuple[RangeTableEntry, ...]
    quals: tuple[Expr, ...]
    required_columns: dict[str, frozenset[str]]

    def rel(self, alias: str) -> RangeTableEntry:
        for entry in self.rels:
            if entry.alias == alias:
                return entry
        raise BindError(f"no relation bound to alias {alias!r}")

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(entry.alias for entry in self.rels)


class Binder:
    """Binds parsed statements against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    def bind(self, stmt: SelectStmt) -> BoundQuery:
        rels = self._bind_range_table(stmt)
        by_alias = {entry.alias: entry for entry in rels}
        stmt = self._resolve_output_aliases(stmt)

        def qualify(expr: Expr) -> Expr:
            if isinstance(expr, ColumnRef):
                return self._resolve_column(expr, rels, by_alias)
            return expr

        qualified = transform_statement(stmt, qualify)
        qualified = replace(
            qualified, targets=self._expand_stars(qualified.targets, rels)
        )
        # Aggregate queries with an empty select-list star are nonsensical
        # after expansion; catch genuinely empty targets.
        if not qualified.targets:
            raise BindError("query selects no columns")

        quals = tuple(conjuncts(qualified.where))
        for qual in quals:
            self._check_single_query_scope(qual, by_alias)

        required = self._collect_required_columns(qualified, rels)
        return BoundQuery(
            statement=qualified,
            rels=tuple(rels),
            quals=quals,
            required_columns=required,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _resolve_output_aliases(stmt: SelectStmt) -> SelectStmt:
        """Replace select-list aliases in ORDER BY / GROUP BY / HAVING.

        ``SELECT avg(z) AS meanz ... ORDER BY meanz`` sorts by the target
        expression, matching PostgreSQL's output-name resolution.
        """
        alias_map = {
            item.alias: item.expr for item in stmt.targets if item.alias is not None
        }
        if not alias_map:
            return stmt

        def substitute(expr: Expr) -> Expr:
            if (
                isinstance(expr, ColumnRef)
                and expr.table is None
                and expr.column in alias_map
            ):
                return alias_map[expr.column]
            return expr

        order_by = tuple(
            replace(item, expr=transform_expr(item.expr, substitute))
            for item in stmt.order_by
        )
        group_by = tuple(transform_expr(g, substitute) for g in stmt.group_by)
        having = (
            transform_expr(stmt.having, substitute)
            if stmt.having is not None
            else None
        )
        return replace(stmt, order_by=order_by, group_by=group_by, having=having)

    def _bind_range_table(self, stmt: SelectStmt) -> list[RangeTableEntry]:
        if not stmt.tables:
            raise BindError("query has no FROM clause")
        rels: list[RangeTableEntry] = []
        seen: set[str] = set()
        for ref in stmt.tables:
            alias = ref.effective_alias
            if alias in seen:
                raise BindError(f"duplicate table alias {alias!r}")
            seen.add(alias)
            if not self._catalog.has_table(ref.name):
                raise BindError(f"unknown table {ref.name!r}")
            rels.append(RangeTableEntry(alias=alias, table=self._catalog.table(ref.name)))
        return rels

    def _resolve_column(
        self,
        ref: ColumnRef,
        rels: list[RangeTableEntry],
        by_alias: dict[str, RangeTableEntry],
    ) -> ColumnRef:
        if ref.table is not None:
            entry = by_alias.get(ref.table)
            if entry is None:
                raise BindError(f"unknown table alias {ref.table!r} in {ref}")
            if not entry.table.has_column(ref.column):
                raise BindError(
                    f"table {entry.table.name!r} (alias {entry.alias!r}) has no "
                    f"column {ref.column!r}"
                )
            return ref
        matches = [e for e in rels if e.table.has_column(ref.column)]
        if not matches:
            raise BindError(f"unknown column {ref.column!r}")
        if len(matches) > 1:
            aliases = ", ".join(e.alias for e in matches)
            raise BindError(f"column {ref.column!r} is ambiguous across: {aliases}")
        return ColumnRef(column=ref.column, table=matches[0].alias)

    def _expand_stars(
        self, targets: tuple[SelectItem, ...], rels: list[RangeTableEntry]
    ) -> tuple[SelectItem, ...]:
        expanded: list[SelectItem] = []
        for item in targets:
            if isinstance(item.expr, Star):
                star = item.expr
                scope = (
                    [e for e in rels if e.alias == star.table] if star.table else rels
                )
                if star.table and not scope:
                    raise BindError(f"unknown table alias {star.table!r} in select *")
                for entry in scope:
                    for column in entry.table.columns:
                        expanded.append(
                            SelectItem(
                                expr=ColumnRef(column=column.name, table=entry.alias)
                            )
                        )
            else:
                self._reject_bare_star_in_expr(item.expr)
                expanded.append(item)
        return tuple(expanded)

    @staticmethod
    def _reject_bare_star_in_expr(expr: Expr) -> None:
        for node in expr.walk():
            if isinstance(node, Star):
                parent_ok = isinstance(expr, FuncCall) and expr.name == "count"
                if not (parent_ok or _star_inside_count(expr, node)):
                    raise BindError("'*' is only allowed in count(*)")

    @staticmethod
    def _check_single_query_scope(qual: Expr, by_alias: dict) -> None:
        for alias in referenced_tables(qual):
            if alias not in by_alias:
                raise BindError(f"qual references unknown alias {alias!r}")

    @staticmethod
    def _collect_required_columns(
        stmt: SelectStmt, rels: list[RangeTableEntry]
    ) -> dict[str, frozenset[str]]:
        needed: dict[str, set[str]] = {entry.alias: set() for entry in rels}

        def visit(expr: Expr) -> Expr:
            if isinstance(expr, ColumnRef) and expr.table is not None:
                needed[expr.table].add(expr.column)
            return expr

        transform_statement(stmt, visit)
        return {alias: frozenset(cols) for alias, cols in needed.items()}


def _star_inside_count(root: Expr, star: Expr) -> bool:
    """True if ``star`` appears directly inside a count() call in ``root``."""
    for node in root.walk():
        if isinstance(node, FuncCall) and node.name == "count":
            if any(child is star for child in node.args):
                return True
    return False


def bind(catalog: Catalog, stmt: SelectStmt) -> BoundQuery:
    """Convenience wrapper around :class:`Binder`."""
    return Binder(catalog).bind(stmt)

