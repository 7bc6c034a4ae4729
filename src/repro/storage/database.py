"""The Database facade: catalog + stored relations + built indexes.

This is the "PostgreSQL instance" of the reproduction. The optimizer
needs only the catalog (statistics); the executor needs the relations
and any materialized B-Trees. PARINDA's what-if layer never touches the
stored data — it works against a cloned catalog — which is exactly why
simulation is orders of magnitude faster than materialization.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index, PartitionScheme, Table
from repro.catalog.statistics import analyze_table
from repro.errors import DuplicateObjectError, UnknownObjectError
from repro.storage.btree import BTreeIndex
from repro.storage.heap import Relation


class Database:
    """An in-process database instance with page-accounted storage."""

    def __init__(self) -> None:
        self.catalog = Catalog()
        self._relations: dict[str, Relation] = {}
        self._btrees: dict[str, BTreeIndex] = {}

    # ------------------------------------------------------------------
    # DDL + data loading

    def create_table(
        self, table: Table, data: Mapping[str, Sequence[Any]] | None = None
    ) -> Relation:
        """Create ``table`` and load ``data`` (column-major); auto-ANALYZE."""
        if data is None:
            data = {c.name: [] for c in table.columns}
        self.catalog.add_table(table)
        relation = Relation(table, data)
        self._relations[table.name] = relation
        self.analyze(table.name)
        return relation

    def replace_rows(
        self, table_name: str, data: Mapping[str, Sequence[Any]]
    ) -> Relation:
        """Swap a stored relation's rows without re-ANALYZE or a DDL bump.

        This exists for *system* tables — the resilience layer's
        ``repro_state`` store mirrors its journal rows into the
        monitored database on every write, and re-analyzing (which
        bumps the catalog version and evicts every cached plan) on each
        journal write would turn durability into a planner-cache storm.
        Statistics for the table go stale; that is deliberate and
        harmless for tables no workload query touches. Regular data
        loading should keep using :meth:`create_table`.
        """
        relation = self.relation(table_name)
        replaced = Relation(relation.table, data)
        self._relations[table_name] = replaced
        return replaced

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        self._relations.pop(name, None)
        for index_name in [
            n for n, bt in self._btrees.items() if bt.definition.table_name == name
        ]:
            del self._btrees[index_name]

    def create_index(self, index: Index) -> BTreeIndex:
        """Materialize a real B-Tree for ``index`` and register it.

        Returns the built tree; building takes time proportional to
        N log N — the cost the what-if layer avoids.

        Atomic build-then-publish: the definition is validated first
        (:meth:`Catalog.check_new_index`), then the B-Tree is fully
        built, and only then is the index published to the catalog and
        the B-Tree registry together. A build that fails mid-way —
        a real error or an injected ``index.build``/``page.read``
        fault — leaves the catalog exactly as it was; it can never
        point at a broken or half-built index.
        """
        if index.hypothetical:
            index = index.as_real()
        self.catalog.check_new_index(index)
        relation = self.relation(index.table_name)
        btree = BTreeIndex(index, relation.table, relation.heap)
        # Publish: nothing above mutated shared state, so the two
        # registrations below are the only visible effect.
        self.catalog.add_index(index)
        self._btrees[index.name] = btree
        return btree

    def drop_index(self, name: str) -> None:
        self.catalog.drop_index(name)
        self._btrees.pop(name, None)

    def analyze(
        self, table_name: str | None = None, target: int | None = None
    ) -> None:
        """Recompute statistics for one table (or all tables).

        ``target`` mirrors PostgreSQL's ``default_statistics_target``:
        the number of MCV slots and histogram bins kept per column.
        Lower targets produce coarser estimates — the A4 ablation
        quantifies what that costs the what-if machinery.
        """
        from repro.catalog.statistics import DEFAULT_STATISTICS_TARGET

        names = [table_name] if table_name else list(self._relations)
        for name in names:
            relation = self.relation(name)
            stats = analyze_table(
                relation.table,
                relation.heap.columns_dict(),
                page_count=relation.heap.page_count,
                target=target if target is not None else DEFAULT_STATISTICS_TARGET,
            )
            self.catalog.set_statistics(name, stats)

    # ------------------------------------------------------------------
    # Access

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownObjectError(f"no stored relation {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def btree(self, index_name: str) -> BTreeIndex:
        try:
            return self._btrees[index_name]
        except KeyError:
            raise UnknownObjectError(
                f"index {index_name!r} is not materialized"
            ) from None

    def has_btree(self, index_name: str) -> bool:
        return index_name in self._btrees

    @property
    def table_names(self) -> list[str]:
        return sorted(self._relations)

    # ------------------------------------------------------------------
    # Partition materialization

    def materialize_partitions(self, scheme: PartitionScheme) -> list[Relation]:
        """Physically create the vertical fragments of ``scheme``.

        Every fragment table carries the parent's primary-key columns
        (prepended when missing) so the original rows can be re-joined.
        The parent table is kept — queries are redirected by the
        rewriter, mirroring how the paper materializes suggested
        partitions alongside the original design.
        """
        parent = self.relation(scheme.table_name)
        pk = parent.table.primary_key
        created: list[Relation] = []
        for position, fragment in enumerate(scheme.fragments):
            columns = tuple(pk) + tuple(c for c in fragment if c not in pk)
            name = scheme.fragment_name(position)
            if self.catalog.has_table(name):
                raise DuplicateObjectError(f"fragment table {name!r} already exists")
            frag_table = parent.table.project(columns, new_name=name)
            data = parent.project_data(columns)
            created.append(self.create_table(frag_table, data))
        return created

    def clone(self) -> "Database":
        """An independent database view over the same stored rows.

        The catalog and B-Tree registry are copied (DDL on the clone —
        creating or dropping indexes — never leaks back), while the
        heap relations are **shared**: the fleet layer clones one built
        database into N replicas, and replica divergence is entirely a
        matter of catalog + index state, never of row data. Existing
        B-Trees are shared too (they are immutable once built); a clone
        that drops one merely unregisters it from its own view.
        """
        other = Database.__new__(Database)
        other.catalog = self.catalog.clone()
        other._relations = dict(self._relations)
        other._btrees = dict(self._btrees)
        return other

    def timed_create_index(self, index: Index) -> tuple[BTreeIndex, float]:
        """Build an index and report the wall-clock build time (E4)."""
        started = time.perf_counter()
        btree = self.create_index(index)
        return btree, time.perf_counter() - started

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Database(tables={len(self._relations)}, "
            f"materialized_indexes={len(self._btrees)})"
        )
