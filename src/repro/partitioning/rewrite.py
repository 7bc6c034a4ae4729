"""The automatic query rewriter for vertical partitions.

Given a bound query and the partition schemes in force, produce a new
(unbound) SELECT over the fragment tables: each partitioned relation is
replaced by a minimal covering set of fragments, column references are
redirected into the fragment that holds them, and fragments of one
original row are re-joined on the primary key. The rewritten SQL can be
saved, exactly like the demo's "save the rewritten queries" option.
"""

from __future__ import annotations

from dataclasses import replace

from repro.catalog.schema import PartitionScheme, Table
from repro.errors import AdvisorError
from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expr,
    SelectStmt,
    TableRef,
    conjoin,
    conjuncts,
)
from repro.sql.binder import BoundQuery
from repro.sql.transform import transform_statement


class PartitionRewriter:
    """Rewrites bound queries onto fragment tables.

    Args:
        schemes: Partition schemes by original table name. Fragment
            tuples must list the *physical* fragment columns (primary
            key included), matching the registered shell tables.
        fragment_names: Optional override of fragment table names; by
            default ``PartitionScheme.fragment_name`` is used.
    """

    def __init__(
        self,
        schemes: dict[str, PartitionScheme],
        fragment_names: dict[str, list[str]] | None = None,
    ) -> None:
        self._schemes = schemes
        self._fragment_names = fragment_names or {}

    def _name_of(self, table_name: str, position: int) -> str:
        names = self._fragment_names.get(table_name)
        if names is not None:
            return names[position]
        return self._schemes[table_name].fragment_name(position)

    # ------------------------------------------------------------------

    def footprint(self, query: BoundQuery) -> tuple:
        """What ``query`` reads of the schemes: per relation, in FROM
        order, the physical fragments :meth:`rewrite` joins in its
        place (``None`` for an unpartitioned relation).

        Fragment *positions* are left out on purpose: two scheme sets
        with equal footprints rewrite ``query`` to the same statement up
        to fragment numbering, so the planner prices both alike.
        """
        parts: list[tuple | None] = []
        for entry in query.rels:
            scheme = self._schemes.get(entry.table.name)
            if scheme is None:
                parts.append(None)
                continue
            needed = query.required_columns[entry.alias]
            parts.append(
                tuple(
                    scheme.fragments[position]
                    for position in _covering(scheme, entry.table, needed)
                )
            )
        return tuple(parts)

    def rewrite(self, query: BoundQuery) -> SelectStmt:
        """The rewritten (unbound) statement for ``query``."""
        stmt = query.statement
        new_tables: list[TableRef] = []
        column_map: dict[tuple[str, str], tuple[str, str]] = {}
        extra_joins: list[Expr] = []

        for entry in query.rels:
            scheme = self._schemes.get(entry.table.name)
            if scheme is None:
                new_tables.append(TableRef(name=entry.table.name, alias=entry.alias))
                continue
            self._rewrite_relation(
                entry.alias,
                entry.table,
                scheme,
                query.required_columns[entry.alias],
                new_tables,
                column_map,
                extra_joins,
            )

        def redirect(expr: Expr) -> Expr:
            if isinstance(expr, ColumnRef) and expr.table is not None:
                target = column_map.get((expr.table, expr.column))
                if target is not None:
                    return ColumnRef(column=target[1], table=target[0])
            return expr

        rewritten = transform_statement(stmt, redirect)
        where_conjuncts = conjuncts(rewritten.where) + extra_joins
        return replace(
            rewritten,
            tables=tuple(new_tables),
            where=conjoin(where_conjuncts),
        )

    # ------------------------------------------------------------------

    def _rewrite_relation(
        self,
        alias: str,
        table: Table,
        scheme: PartitionScheme,
        needed: frozenset[str],
        new_tables: list[TableRef],
        column_map: dict[tuple[str, str], tuple[str, str]],
        extra_joins: list[Expr],
    ) -> None:
        if not table.primary_key:
            raise AdvisorError(
                f"cannot rewrite over partitions of {table.name!r}: no primary key"
            )
        positions = _covering(scheme, table, needed)

        fragment_aliases: list[str] = []
        for position in positions:
            fragment_alias = f"{alias}__f{position}"
            fragment_aliases.append(fragment_alias)
            new_tables.append(
                TableRef(name=self._name_of(scheme.table_name, position), alias=fragment_alias)
            )
            for column in scheme.fragments[position]:
                column_map.setdefault((alias, column), (fragment_alias, column))

        # Re-join fragments on the primary key.
        first = fragment_aliases[0]
        for other in fragment_aliases[1:]:
            for key_column in table.primary_key:
                extra_joins.append(
                    BinaryOp(
                        "=",
                        ColumnRef(column=key_column, table=first),
                        ColumnRef(column=key_column, table=other),
                    )
                )


def _covering(
    scheme: PartitionScheme, table: Table, needed: frozenset[str]
) -> list[int]:
    """Positions of the fragments read for ``needed`` columns of
    ``table`` (a relation no column of which is needed still has to
    produce its rows: it reads the primary key)."""
    return scheme.covering_fragments(set(needed) if needed else set(table.primary_key))
