"""In-process evaluation helpers: INUM model builds.

:func:`build_inum_models` obtains one INUM model per workload query,
serially, on the calling thread, in workload order. Every build is a
pure function of (catalog, query, config) and a built model's
observable state never changes, so a warm
:class:`~repro.parallel.caches.CostCache` hands back the model it
already holds instead of building another. There is no pool: the build
is pure Python under the GIL, so threads never overlapped it, and a
process pool cost 60-180 ms of start-up and transport per batch against
~3 ms of work per template (DESIGN.md, "Performance architecture").

Failure isolation: a query whose model build fails — a real
:class:`~repro.errors.ReproError` or an injected ``inum.build`` fault —
is quarantined, never fatal to the batch.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.errors import FaultInjected, ReproError
from repro.inum.model import MAX_COMBINATIONS, InumModel
from repro.optimizer.config import PlannerConfig
from repro.parallel.caches import CostCache
from repro.resilience import faults
from repro.resilience.degrade import DegradedResult
from repro.sql.binder import BoundQuery
from repro.workloads.workload import Workload


# ----------------------------------------------------------------------
# INUM model builds


def build_inum_models(
    catalog: Catalog,
    workload: Workload,
    config: PlannerConfig | None = None,
    *,
    cost_cache: CostCache | None = None,
    bound: dict[str, BoundQuery] | None = None,
    degraded: list[DegradedResult] | None = None,
) -> dict[str, InumModel]:
    """One INUM model per workload query, in workload order.

    Queries are bound up front (through the shared ``cost_cache`` when
    given) and models are returned keyed by query name, in workload
    order. With a ``cost_cache`` every model comes out of its ``inum``
    section: a query modelled before on this catalog version and config
    returns the *same object* (no optimizer call, access memo already
    warm), anything else is built once and kept there.

    Per-query failure isolation: a query whose model build raises a
    :class:`~repro.errors.ReproError` (including an injected
    ``inum.build`` fault) is quarantined — omitted from the returned
    dict, with a ``quarantined`` record appended to ``degraded`` —
    instead of aborting the whole batch. Callers that need every query
    must check for missing keys.
    """
    config = config or PlannerConfig()
    sink = degraded if degraded is not None else []
    if bound is None:
        bound = bind_workload(catalog, workload, cost_cache)
    config_fp = cost_cache.fingerprint(config) if cost_cache is not None else None

    # Injected inum.build faults are checked up front, in workload
    # order, so their records precede those of builds that really fail.
    quarantined: set[str] = set()
    for name in (query.name for query in workload):
        try:
            faults.check("inum.build", name)
        except FaultInjected as exc:
            sink.append(
                DegradedResult("inum.build", name, "quarantined", str(exc))
            )
            quarantined.add(name)

    models: dict[str, InumModel] = {}
    for query in workload:
        name = query.name
        if name in quarantined:
            continue

        def build() -> InumModel:  # called before the next iteration
            return InumModel(catalog, bound[name], config, cost_cache=cost_cache)

        try:
            if cost_cache is None:
                models[name] = build()
            else:
                models[name] = cost_cache.inum_model(
                    catalog, config_fp, query.sql, MAX_COMBINATIONS, build
                )
        except ReproError as exc:
            sink.append(
                DegradedResult("inum.build", name, "quarantined", str(exc))
            )
    return models


def bind_workload(
    catalog: Catalog,
    workload: Workload,
    cost_cache: CostCache | None = None,
) -> dict[str, BoundQuery]:
    """Bind every workload query once, via the shared cache when given."""
    out: dict[str, BoundQuery] = {}
    for query in workload:
        if cost_cache is not None:
            out[query.name] = cost_cache.bound_query(catalog, query.sql)
        else:
            out[query.name] = query.bind(catalog)
    return out
