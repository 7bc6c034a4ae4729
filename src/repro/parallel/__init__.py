"""Workload evaluation support: shared cost caches and model builds.

The advisor stack prices a workload by building one INUM model per
query and then evaluating thousands of configurations against those
models. Each per-query cache build is independent, and large parts of
the arithmetic (Equation-1 index sizes, sequential-scan costs, access
costs for identical restriction sets) are recomputed per query. This
package provides:

* :class:`~repro.parallel.caches.CostCache` — a thread-safe,
  catalog-versioned memoization layer shared across queries and
  advisors, with per-section hit/miss counters.
* :func:`~repro.parallel.engine.build_inum_models` — one INUM model
  per query, built in-process in workload order and rehydrated from
  the cache's snapshots when the same query was modeled before.
* :class:`~repro.parallel.engine.BackgroundWorker` — a single daemon
  thread draining a bounded, oldest-evicting hand-off queue in strict
  submission order; the online tuner's non-blocking observe path rides
  on it.
"""

from repro.parallel.caches import CostCache, SectionCounters
from repro.parallel.engine import (
    BackgroundWorker,
    build_inum_models,
)

__all__ = [
    "BackgroundWorker",
    "CostCache",
    "SectionCounters",
    "build_inum_models",
]
