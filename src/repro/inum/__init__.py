"""INUM: efficient reuse of the query optimizer for physical design.

Reproduces Papadomanolakis, Dash & Ailamaki (VLDB 2007): cache a small
number of optimizer plans per query — one per combination of
"interesting orders" delivered to each relation, with nested loops
enabled and, where a nested loop survives, disabled — then estimate the
cost of *any* index configuration as
``internal_cost + Σ access_cost(chosen index per relation)`` without
calling the optimizer again. The ILP index advisor issues millions of
configuration evaluations; INUM turns each into a handful of dictionary
lookups.
"""

from repro.inum.batch import WorkloadEvaluator
from repro.inum.model import CacheEntry, InumModel, InumStatistics

__all__ = ["CacheEntry", "InumModel", "InumStatistics", "WorkloadEvaluator"]
