"""Greedy index advisor: the commercial-tool baseline.

Classic greedy heuristic pruning: start from the empty configuration
and repeatedly add the candidate index with the largest marginal
workload benefit (optionally per storage page) that still fits the
budget; stop when nothing improves. It is the ILP advisor's pipeline
with a different ``select()`` — the *same* candidate set and INUM
pricing — so experiment E6 isolates the search strategy, which is
exactly the paper's argument: "these tools are, however, based on
greedy heuristic pruning, which reduces their usefulness".
"""

from __future__ import annotations

from typing import Callable

from repro.advisor.candidates import CandidateIndex
from repro.advisor.ilp_advisor import (
    _MIN_BENEFIT,
    AdvisorResult,
    IndexAdvisor,
    Selection,
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
        """Greedy search with each round's trials as one array op.

        Every round prices all ``current + [candidate]`` extensions in
        a single :meth:`WorkloadEvaluator.extension_costs` evaluation
        and scans them in candidate order, so ties fall to the earliest
        candidate.
        """
        chosen: list[int] = []
        remaining = list(range(len(candidates)))
        used_pages = 0
        current_cost = evaluator.workload_cost(chosen)

        while True:
            trials = evaluator.workload_totals(
                evaluator.extension_costs(chosen, remaining)
            )
            best_slot = None
            best_score = 0.0
            best_cost = current_cost
            for slot, position in enumerate(remaining):
                size = candidates[position].size_pages
                if used_pages + size > budget_pages:
                    continue
                trial_cost = float(trials[slot])
                saving = current_cost - trial_cost
                if saving <= _MIN_BENEFIT:
                    continue
                score = saving / size if self._per_page else saving
                if score > best_score:
                    best_score = score
                    best_slot = slot
                    best_cost = trial_cost
            if best_slot is None:
                break
            position = remaining.pop(best_slot)
            chosen.append(position)
            used_pages += candidates[position].size_pages
            current_cost = best_cost
        lap("solve")
        return Selection(chosen, "greedy")
