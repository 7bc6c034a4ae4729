"""Shared, catalog-versioned cost caches.

Every entry is keyed by :attr:`Catalog.cache_key` — a (catalog
identity, version) pair that changes on any DDL or re-ANALYZE — so
invalidation is automatic: a stale entry can never be served because
its key can never be produced again. Values are pure functions of their
keys, which is what makes sharing the cache across threads (and across
queries, advisors, and repeated ``recommend`` calls) safe: a racing
recompute produces the identical value.

Sections:

``index_pages``
    Equation-1 leaf-page counts, keyed by (table, key columns, row
    count, fillfactor). Recomputed today by every hook invocation and
    every candidate sizing.
``seq_cost``
    Sequential-scan total costs, keyed by (relation, qual count) —
    ``cost_seqscan`` depends on nothing else.
``access``
    INUM per-relation access costs, keyed by the relation's restriction
    signature plus the index signature — shared across queries with
    identical predicates on a table.
``bind``
    Bound queries keyed by SQL text; binding only depends on the
    catalog schema.
``inum``
    Built :class:`~repro.inum.model.InumModel` objects keyed by
    (catalog version, config fingerprint, SQL, combination cap). The
    model is cached, not a copy of it: a hit *is* the estimation-ready
    model — no optimizer call, no re-preparation, its access memo
    already warm — which is what makes repeated ``recommend`` rounds
    against an unchanged catalog cheap. A model's observable state is
    fixed after construction (only its access memo grows, values pure
    functions of the key), so every holder of the object prices
    bit-identically to a fresh build. **A cached value must not own
    this cache**: a model that kept a strong ``cost_cache`` reference
    would close a cycle through this section and every per-call
    ``CostCache`` — with the catalogs and plans it reaches — would
    wait for the garbage collector instead of being freed by refcount
    (``InumModel`` holds its cache weakly for exactly this reason).

Bounding
    By default sections grow without limit, which is fine for one-shot
    advisor calls but not for a long-lived process (the online tuner, a
    long interactive session): every DDL strands the previous catalog
    version's entries, unreachable but retained. Pass ``max_entries``
    to cap each section; insertion past the cap evicts entries tagged
    with a *stale* catalog version first (they can never be served
    again) and falls back to plain LRU among current-version entries.
    Eviction never changes results — values are pure functions of their
    keys, so an evicted entry is simply recomputed on the next lookup.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index, Table
from repro.catalog.sizing import (
    BTREE_LEAF_FILLFACTOR,
    estimate_index_pages,
    estimate_index_pages_batch,
)
from repro.catalog.statistics import ColumnStats
from repro.errors import ReproError
from repro.sql.binder import BoundQuery, bind
from repro.sql.parser import parse_select

SECTIONS = ("index_pages", "seq_cost", "access", "bind", "inum")


@dataclass
class SectionCounters:
    """Hit/miss/eviction bookkeeping for one cache section."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    peak_size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class CostCache:
    """A thread-safe memoization layer shared across per-query models.

    One instance is typically created per advisor ``recommend()`` call
    (or handed in by the caller to share across calls, which is what
    makes a re-advise cheap: the ``inum`` section hands back the models
    the previous call built). One thread at a time advises against a
    cache — its models are shared objects, not copies; the lock is for
    the online tuner's background worker, which re-advises on its own
    thread while the cache's owner may use it from the foreground.

    Args:
        max_entries: Per-section entry cap. ``None`` (default) means
            unbounded; an int applies to every section; a mapping caps
            individual sections (missing sections stay unbounded).
            Long-lived owners (the online tuner, the Parinda facade in
            a daemon) should set a bound so stale catalog versions are
            evicted instead of accreting forever.
    """

    def __init__(self, max_entries: int | Mapping[str, int] | None = None) -> None:
        self._lock = threading.Lock()
        self._data: dict[str, OrderedDict[Any, Any]] = {
            s: OrderedDict() for s in SECTIONS
        }
        self._counters: dict[str, SectionCounters] = {
            s: SectionCounters() for s in SECTIONS
        }
        if max_entries is None:
            self._bounds: dict[str, int | None] = {s: None for s in SECTIONS}
        elif isinstance(max_entries, int):
            if max_entries <= 0:
                raise ReproError("max_entries must be positive")
            self._bounds = {s: max_entries for s in SECTIONS}
        else:
            unknown = set(max_entries) - set(SECTIONS)
            if unknown:
                raise ReproError(f"unknown cache sections: {sorted(unknown)}")
            if any(v is not None and v <= 0 for v in max_entries.values()):
                raise ReproError("per-section max_entries must be positive")
            self._bounds = {s: max_entries.get(s) for s in SECTIONS}
        # Which catalog version each entry was computed against, and the
        # most recent version seen per section — bounded sections evict
        # stale-version entries (unreachable after any DDL) first.
        self._entry_catalog: dict[str, dict[Any, Any]] = {s: {} for s in SECTIONS}
        self._latest_catalog: dict[str, Any] = {}
        # Hooks referenced by config fingerprints are pinned so their
        # id() — part of the fingerprint — cannot be reused after GC.
        self._pinned_hooks: list[object] = []

    # ------------------------------------------------------------------
    # Generic lookup

    _MISS = object()

    def lookup(
        self,
        section: str,
        key: Any,
        compute: Callable[[], Any],
        catalog_key: Any = None,
    ) -> Any:
        """Return the cached value for ``key``, computing it on a miss.

        ``catalog_key`` tags the entry with the catalog version it was
        computed against; bounded sections use it to evict stale
        versions first.

        Unbounded sections are lock-free: dict get/set are atomic under
        the GIL, values are pure functions of their keys (a racing
        duplicate computation is benign), and counter increments that
        race merely undercount — counters are diagnostics, not part of
        the determinism contract. Bounded sections take the lock around
        bookkeeping because LRU reordering and eviction mutate shared
        ordering state.
        """
        store = self._data[section]
        counter = self._counters[section]
        bound = self._bounds[section]
        if bound is None:
            value = store.get(key, CostCache._MISS)
            if value is not CostCache._MISS:
                counter.hits += 1
                return value
            counter.misses += 1
            value = compute()
            store[key] = value
            if len(store) > counter.peak_size:
                counter.peak_size = len(store)
            return value

        with self._lock:
            if catalog_key is not None:
                self._latest_catalog[section] = catalog_key
            value = store.get(key, CostCache._MISS)
            if value is not CostCache._MISS:
                counter.hits += 1
                store.move_to_end(key)
                return value
            counter.misses += 1
        # Compute outside the lock: values are pure functions of their
        # keys, so a racing duplicate computation yields the same value.
        value = compute()
        with self._lock:
            if key not in store:
                store[key] = value
                self._entry_catalog[section][key] = catalog_key
                while len(store) > bound:
                    self._evict_one(section, store, counter)
                # Peak is observed after trimming: a bounded section
                # never reports a peak above its bound.
                if len(store) > counter.peak_size:
                    counter.peak_size = len(store)
        return value

    def _evict_one(
        self, section: str, store: OrderedDict, counter: SectionCounters
    ) -> None:
        """Evict one entry: stale catalog versions first, then LRU.

        Caller holds ``self._lock``; ``store`` is non-empty.
        """
        tags = self._entry_catalog[section]
        latest = self._latest_catalog.get(section)
        victim = None
        if latest is not None:
            for key in store:  # iterates LRU → MRU
                if tags.get(key) != latest:
                    victim = key
                    break
        if victim is None:
            victim = next(iter(store))
        del store[victim]
        tags.pop(victim, None)
        counter.evictions += 1

    # ------------------------------------------------------------------
    # Typed helpers

    def index_pages(
        self,
        catalog: Catalog,
        table: Table,
        index: Index,
        row_count: float,
        column_stats: Mapping[str, ColumnStats] | None = None,
        fillfactor: float = BTREE_LEAF_FILLFACTOR,
    ) -> int:
        """Memoized :func:`~repro.catalog.sizing.estimate_index_pages`.

        Column widths come from the catalog's statistics, so the
        catalog cache key (bumped by re-ANALYZE) completes the key.
        """
        key = (catalog.cache_key, table.name, index.columns, row_count, fillfactor)
        return self.lookup(
            "index_pages",
            key,
            lambda: estimate_index_pages(
                table, index, row_count, column_stats, fillfactor
            ),
            catalog_key=catalog.cache_key,
        )

    def index_pages_batch(
        self,
        catalog: Catalog,
        table: Table,
        indexes: list[Index],
        row_count: float,
        column_stats: Mapping[str, ColumnStats] | None = None,
        fillfactor: float = BTREE_LEAF_FILLFACTOR,
    ) -> list[int]:
        """Batched :meth:`index_pages`: size every index in one pass.

        Cached sizes are served per key as usual; the misses are
        evaluated together through the vectorized Equation-1 kernel and
        inserted individually, so counters, bounds, and eviction behave
        exactly as if :meth:`index_pages` had been called per index.
        """
        keys = [
            (catalog.cache_key, table.name, ix.columns, row_count, fillfactor)
            for ix in indexes
        ]
        missing = [
            i for i, key in enumerate(keys)
            if not self.contains("index_pages", key)
        ]
        computed: dict[int, int] = {}
        if missing:
            sizes = estimate_index_pages_batch(
                table,
                [indexes[i].columns for i in missing],
                row_count,
                column_stats,
                fillfactor,
            )
            computed = {i: int(size) for i, size in zip(missing, sizes)}
        out: list[int] = []
        for i, key in enumerate(keys):
            # A racing thread may have filled a "missing" key — lookup
            # resolves it either way; values are pure so both agree.
            value = computed.get(i)
            out.append(
                self.lookup(
                    "index_pages",
                    key,
                    (lambda v=value, ix=indexes[i]: v if v is not None
                     else estimate_index_pages(
                         table, ix, row_count, column_stats, fillfactor)),
                    catalog_key=catalog.cache_key,
                )
            )
        return out

    def seq_cost(
        self,
        catalog: Catalog,
        config_fp: tuple,
        table_name: str,
        qual_count: int,
        compute: Callable[[], float],
    ) -> float:
        """Memoized sequential-scan total cost for one relation.

        ``cost_seqscan`` depends only on the relation's page/row counts
        (catalog key), the cost constants (config fingerprint), and the
        number of quals evaluated per tuple.
        """
        key = (catalog.cache_key, config_fp, table_name, qual_count)
        return self.lookup(
            "seq_cost", key, compute, catalog_key=catalog.cache_key
        )

    def access_info(
        self, key: Any, compute: Callable[[], Any], catalog_key: Any = None
    ) -> Any:
        """Memoized INUM access info, shared across queries whose
        restriction signature on the relation is identical."""
        return self.lookup("access", key, compute, catalog_key=catalog_key)

    def bound_query(self, catalog: Catalog, sql: str) -> BoundQuery:
        """Parse+bind ``sql`` once per catalog version."""
        key = (catalog.cache_key, sql)
        return self.lookup(
            "bind",
            key,
            lambda: bind(catalog, parse_select(sql)),
            catalog_key=catalog.cache_key,
        )

    def inum_model(
        self,
        catalog: Catalog,
        config_fp: tuple,
        sql: str,
        max_combinations: int,
        compute: Callable[[], Any],
    ) -> Any:
        """The built INUM model for one query, constructed on a miss.

        A model is a pure function of (catalog version, planner config,
        SQL, combination cap): every optimizer call it embeds is. A hit
        returns the very object an earlier call built; it must hold no
        strong reference back to this cache (see the module docstring).
        """
        key = (catalog.cache_key, config_fp, sql, max_combinations)
        return self.lookup(
            "inum", key, compute, catalog_key=catalog.cache_key
        )

    def contains(self, section: str, key: Any) -> bool:
        """Whether ``key`` is cached (no counter side effects)."""
        return key in self._data[section]

    # ------------------------------------------------------------------
    # Config fingerprinting

    def fingerprint(self, config) -> tuple:
        """A hashable digest of every cost-relevant config field.

        The relation-info hook is represented by its ``id()`` (and
        pinned against garbage collection): models built from the same
        config object share cache entries, while differently-hooked
        configs can never collide.
        """
        hook = config.relation_info_hook
        with self._lock:
            if all(h is not hook for h in self._pinned_hooks):
                self._pinned_hooks.append(hook)
        fields = tuple(
            (f.name, getattr(config, f.name))
            for f in dataclasses.fields(config)
            if f.name != "relation_info_hook"
        )
        return fields + (("relation_info_hook", id(hook)),)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def counters(self) -> dict[str, SectionCounters]:
        return dict(self._counters)

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self._counters.values())

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self._counters.values())

    def stats(self) -> dict[str, dict[str, float]]:
        """JSON-friendly per-section counters (for benchmark reports)."""
        return {
            section: {
                "hits": counter.hits,
                "misses": counter.misses,
                "hit_rate": round(counter.hit_rate, 4),
                "evictions": counter.evictions,
                "size": len(self._data[section]),
                "peak_size": counter.peak_size,
            }
            for section, counter in self._counters.items()
        }

    def section_size(self, section: str) -> int:
        """Current entry count of one section."""
        return len(self._data[section])

    @property
    def evictions(self) -> int:
        return sum(c.evictions for c in self._counters.values())

    def clear(self) -> None:
        with self._lock:
            for store in self._data.values():
                store.clear()
            for tags in self._entry_catalog.values():
                tags.clear()
