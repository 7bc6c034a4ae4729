"""One node of a replicated fleet: catalog clone, design, cost cache.

A replica is deliberately lightweight. Its catalog is a
:meth:`~repro.catalog.catalog.Catalog.clone` of the primary — a shallow
copy sharing the immutable schema and statistics objects — so forking N
replicas costs a few dict copies, not a data copy. What makes replicas
*diverge* is the standing design each one adopts: the fleet tuner runs
a per-cluster :class:`~repro.advisor.ilp_advisor.IlpIndexAdvisor`
against each replica's own catalog and cost cache, so replica 0 can
carry covering indexes for cone searches while replica 1 specializes
in photo–spec joins.

The per-replica :class:`~repro.parallel.caches.CostCache` matters for
round-over-round cost: catalog clones get fresh cache tokens, so a
replica's bound queries, Equation-1 sizes, and INUM models
persist across tuning rounds (a query that stays routed to
the same replica re-advises warm) without ever colliding with another
replica's entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index, index_signature
from repro.parallel.caches import CostCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.advisor.ilp_advisor import AdvisorResult


class Replica:
    """A fleet member: cloned catalog + standing design + cost cache."""

    def __init__(
        self,
        replica_id: int,
        catalog: Catalog,
        cost_cache: CostCache | None = None,
    ) -> None:
        self.replica_id = int(replica_id)
        self.catalog = catalog
        self.cost_cache = cost_cache if cost_cache is not None else CostCache()
        self.design: tuple[Index, ...] = ()
        #: The AdvisorResult behind the current design (None until the
        #: first adopt, or when the design was inherited unchanged).
        self.result: "AdvisorResult | None" = None
        #: Tuning rounds in which this replica re-advised.
        self.tuned_rounds = 0

    @classmethod
    def fork(
        cls,
        replica_id: int,
        primary: Catalog,
        cache_max_entries: int | None = None,
    ) -> "Replica":
        """A fresh replica cloned off the primary catalog."""
        return cls(
            replica_id,
            primary.clone(),
            CostCache(max_entries=cache_max_entries),
        )

    # ------------------------------------------------------------------

    def adopt(
        self,
        design: Iterable[Index],
        result: "AdvisorResult | None" = None,
    ) -> None:
        """Install a standing design (kept in a deterministic order)."""
        self.design = tuple(
            sorted(design, key=lambda ix: (ix.table_name, ix.columns))
        )
        self.result = result
        self.tuned_rounds += 1

    @property
    def design_signatures(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Order-stable (table, columns) signatures of the design."""
        return tuple(index_signature(ix) for ix in self.design)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Replica({self.replica_id}, design={len(self.design)} indexes, "
            f"tuned_rounds={self.tuned_rounds})"
        )
