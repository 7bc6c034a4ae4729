"""Greedy index advisor: the commercial-tool baseline.

Classic greedy heuristic pruning: start from the empty configuration
and repeatedly add the candidate index with the largest marginal
workload benefit (optionally per storage page) that still fits the
budget; stop when nothing improves. It is the ILP advisor's pipeline
with a different ``select()`` — the *same* candidate set and INUM
pricing — so experiment E6 isolates the search strategy, which is
exactly the paper's argument: "these tools are, however, based on
greedy heuristic pruning, which reduces their usefulness". The search
itself is :func:`repro.advisor.ilp_advisor.greedy_select`, the one the
ILP advisor falls back to when its solver fails.
"""

from __future__ import annotations

from typing import Callable

from repro.advisor.candidates import CandidateIndex
from repro.advisor.ilp_advisor import (
    AdvisorResult,
    IndexAdvisor,
    Selection,
    greedy_select,
)
from repro.catalog.catalog import Catalog
from repro.inum.batch import WorkloadEvaluator
from repro.optimizer.config import PlannerConfig
from repro.resilience.degrade import DegradedResult
from repro.workloads.workload import Workload


class GreedyIndexAdvisor(IndexAdvisor):
    """Greedy marginal-benefit index selection under a storage budget."""

    def __init__(
        self,
        catalog: Catalog,
        config: PlannerConfig | None = None,
        per_page: bool = False,
        **pipeline,
    ) -> None:
        super().__init__(catalog, config, **pipeline)
        self._per_page = per_page

    def recommend(self, workload: Workload, budget_pages: int) -> AdvisorResult:
        return self._advise(workload, budget_pages)

    def select(
        self,
        workload: Workload,
        candidates: list[CandidateIndex],
        evaluator: WorkloadEvaluator,
        budget_pages: int,
        lap: Callable[[str], None],
        degraded: list[DegradedResult],
    ) -> Selection:
        """The shared :func:`greedy_select` over every candidate, with
        no upkeep: the same search the ILP advisor falls back to."""
        chosen = greedy_select(
            candidates,
            evaluator,
            range(len(candidates)),
            budget_pages,
            [0.0] * len(candidates),
            per_page=self._per_page,
        )
        lap("solve")
        return Selection(chosen, "greedy")
