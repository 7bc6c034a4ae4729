"""Attribute-usage analysis and atomic fragment derivation."""

from __future__ import annotations

from repro.catalog.schema import Table
from repro.sql.binder import BoundQuery


def attribute_usage(
    bound: dict[str, BoundQuery],
) -> dict[str, dict[str, frozenset[str]]]:
    """``usage[table][column] = frozenset of query names touching it``.

    Takes bound queries by name, so alias resolution and star expansion
    are already done (and a query that does not bind is the caller's to
    set aside); multiple aliases of the same table merge.
    """
    usage: dict[str, dict[str, set[str]]] = {}
    for name, query in bound.items():
        for entry in query.rels:
            table_usage = usage.setdefault(entry.table.name, {})
            for column in query.required_columns[entry.alias]:
                table_usage.setdefault(column, set()).add(name)
    return {
        table: {col: frozenset(queries) for col, queries in cols.items()}
        for table, cols in usage.items()
    }


def atomic_fragments(
    table: Table, column_usage: dict[str, frozenset[str]]
) -> list[tuple[str, ...]]:
    """The thinnest fragments: columns grouped by identical query usage.

    Columns no query references are collected into one trailing
    "cold" fragment (they must live somewhere). Primary-key columns are
    *not* forced into fragments here — the shell builder prepends them.
    Fragments preserve the table's column order for determinism.
    """
    groups: dict[frozenset[str], list[str]] = {}
    cold: list[str] = []
    for column in table.column_names:
        queries = column_usage.get(column)
        if not queries:
            cold.append(column)
        else:
            groups.setdefault(queries, []).append(column)

    fragments = [tuple(cols) for _sig, cols in sorted(
        groups.items(), key=lambda item: min(item[1])
    )]
    if cold:
        fragments.append(tuple(cold))
    return fragments


def fragment_with_pk(table: Table, fragment: tuple[str, ...]) -> tuple[str, ...]:
    """The physical column list of a fragment: primary key first."""
    pk = tuple(table.primary_key)
    return pk + tuple(c for c in fragment if c not in pk)


def co_accessed(
    fragment_a: tuple[str, ...],
    fragment_b: tuple[str, ...],
    column_usage: dict[str, frozenset[str]],
) -> bool:
    """True when at least one query touches columns from both fragments
    (the AutoPart condition for generating their composite)."""
    queries_a: set[str] = set()
    for column in fragment_a:
        queries_a |= column_usage.get(column, frozenset())
    for column in fragment_b:
        if queries_a & column_usage.get(column, frozenset()):
            return True
    return False
