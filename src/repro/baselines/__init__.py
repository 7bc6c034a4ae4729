"""Baseline physical-design algorithms the paper compares against.

* :class:`GreedyIndexAdvisor` — the greedy-heuristic style of the
  commercial tools (DTA/Design Advisor/SQL Access Advisor) the paper
  criticizes: iteratively add the candidate with the best marginal
  benefit until the budget is exhausted. It is the ILP advisor's
  pipeline (:class:`repro.advisor.ilp_advisor.IndexAdvisor`) with a
  different ``select()``, so the two differ in search strategy only.
* Single-column selection (COLT-style) is available on both advisors via
  ``single_column_only=True``.
"""

from repro.baselines.greedy import GreedyIndexAdvisor

__all__ = ["GreedyIndexAdvisor"]
