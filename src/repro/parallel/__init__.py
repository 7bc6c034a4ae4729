"""Workload evaluation support: shared cost caches and model builds.

Nothing here is parallel any more (the pools went in PR 19; the package
keeps its name until the ledger's trace targets can move). The advisor
stack prices a workload by building one INUM model per query and then
evaluating thousands of configurations against those models; large
parts of the arithmetic (Equation-1 index sizes, sequential-scan costs,
access costs for identical restriction sets) repeat across queries, and
a re-advise against an unchanged catalog repeats whole models. This
package provides:

* :class:`~repro.parallel.caches.CostCache` — a thread-safe,
  catalog-versioned memoization layer shared across queries, advisors
  and re-advises, with per-section hit/miss counters.
* :func:`~repro.parallel.engine.build_inum_models` — one INUM model
  per query, built in-process on the calling thread in workload order;
  the cache's ``inum`` section keeps the model, so a query modeled
  before comes back as the same object. (A cached model holds its
  cache weakly: a strong back-reference would make every cache cyclic
  garbage.)
"""

from repro.parallel.caches import CostCache, SectionCounters
from repro.parallel.engine import build_inum_models

__all__ = [
    "CostCache",
    "SectionCounters",
    "build_inum_models",
]
