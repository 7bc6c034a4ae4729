"""ILP-based index selection (Papadomanolakis & Ailamaki, SMDB 2007).

Formulation (binary variables):

* ``x_i`` — candidate index ``i`` is built.
* ``y_{q,i}`` — query ``q`` uses index ``i`` on its table.

maximize   Σ_q w_q Σ_i benefit(q, i) · y_{q,i}  −  Σ_i maint_i · x_i
subject to y_{q,i} ≤ x_i                         (use only built indexes)
           Σ_{i on table t} y_{q,i} ≤ 1  ∀ q, t  (one access path per
                                                  table per query — the
                                                  paper's accuracy
                                                  constraint)
           Σ_i size_i · x_i ≤ budget             (storage constraint)
           Σ_i maint_i · x_i ≤ update budget     (optional update-cost
                                                  constraint, §3.4)

``maint_i`` models index maintenance: every row update on a table must
descend each of its indexes and dirty a leaf, so
``maint_i = update_rate(table_i) × (random_page_cost + descent CPU)``.
Pass ``update_rates`` (weighted row updates per table, in the same
units as query weights) to activate it; maintenance then also enters
the objective so the advisor naturally declines indexes whose upkeep
exceeds their benefit — the behaviour DBAs expect on write-hot tables.

``benefit(q, i)`` is the INUM-estimated saving of running ``q`` with
index ``i`` alone (atomic configuration) — the decomposition INUM makes
additive per table. The final recommendation is re-priced with full
INUM estimates over the chosen configuration, so the reported speedup
never relies on the additivity assumption.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.advisor.benefits import BenefitMatrix
from repro.advisor.candidates import (
    CandidateIndex,
    generate_candidates,
    prune_dominated,
)
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index
from repro.errors import AdvisorError, FaultInjected, SolverError
from repro.ilp.branch_bound import BranchAndBoundSolver
from repro.ilp.model import LinearProgram, Sense
from repro.inum.batch import WorkloadEvaluator
from repro.inum.model import InumModel
from repro.optimizer.config import PlannerConfig
from repro.parallel.caches import CostCache
from repro.parallel.engine import bind_workload, build_inum_models
from repro.resilience.degrade import DegradedResult
from repro.sql.binder import BoundQuery
from repro.workloads.workload import Workload

_MIN_BENEFIT = 1e-6

# Branch-and-bound node limit of one advise; a cut-short search returns
# its incumbent as "feasible".
_MAX_NODES = 20000


@dataclass
class QueryBenefit:
    """Per-query before/after costs in the final recommendation."""

    name: str
    cost_before: float
    cost_after: float
    indexes_used: list[str] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        if self.cost_after <= 0:
            return float("inf")
        return self.cost_before / self.cost_after

    @property
    def benefit(self) -> float:
        return self.cost_before - self.cost_after


@dataclass
class AdvisorResult:
    """A physical-design recommendation."""

    indexes: list[Index]
    size_pages: int
    budget_pages: int
    cost_before: float
    cost_after: float
    per_query: list[QueryBenefit]
    candidates_considered: int
    solver_nodes: int
    solver_status: str
    elapsed_seconds: float
    inum_estimates: int = 0
    optimizer_calls: int = 0
    # Total index-maintenance cost under the update model (0 when no
    # update_rates were supplied); already included in cost_after.
    maintenance_cost: float = 0.0
    # Shared-cost-cache totals for the run (all sections combined) and
    # the per-section breakdown (see CostCache.stats()).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stats: dict = field(default_factory=dict)
    # Interesting-order combinations dropped across all models because
    # max_combinations capped the product; nonzero means INUM fidelity
    # was degraded for at least one query.
    combinations_truncated: int = 0
    # Graceful-degradation records: quarantined queries, solver
    # fallbacks, abandoned pools. Empty means a fully clean run.
    degraded: list[DegradedResult] = field(default_factory=list)
    # Wall-clock seconds per pipeline phase (model_build,
    # benefit_matrix, solve, refine, apply_pricing, ...): attributes
    # where elapsed_seconds went instead of one opaque number.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    # Candidates dropped by dominance pruning before the ILP was built
    # (0 for advisors that build no ILP).
    candidates_pruned: int = 0
    # Queries folded away by workload compression: raw queries in minus
    # weighted templates advised (0 when compression was off or the
    # input was already compressed).
    queries_folded: int = 0

    @property
    def speedup(self) -> float:
        if self.cost_after <= 0:
            return float("inf")
        return self.cost_before / self.cost_after

    @property
    def benefit(self) -> float:
        return self.cost_before - self.cost_after


@dataclass
class Selection:
    """What a ``select()`` hook hands back to the shared pipeline."""

    # Chosen candidate positions, in the order the result lists them.
    positions: list[int]
    # Becomes AdvisorResult.solver_status / solver_nodes.
    status: str
    nodes: int = 0
    candidates_pruned: int = 0
    # Upkeep of the chosen indexes under the update model; added to
    # the priced cost_after.
    maintenance_cost: float = 0.0


class IndexAdvisor:
    """The advising pipeline, once: fold → bind → candidates → INUM
    models → quarantine → evaluator → :meth:`select` → full-INUM
    pricing → counters. Subclasses are their :meth:`select` — the
    search strategy over one shared candidate pool and one pricing
    path, which is what makes their results comparable.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: PlannerConfig | None = None,
        *,
        max_candidates_per_table: int = 40,
        single_column_only: bool = False,
        cost_cache: CostCache | None = None,
    ) -> None:
        """Args (the rest are search-space knobs):

        cost_cache: Share a :class:`CostCache` across advisors or
            repeated ``recommend`` calls; by default each call gets a
            fresh one.
        """
        self._catalog = catalog
        self._config = config or PlannerConfig()
        self._max_per_table = max_candidates_per_table
        self._single_column_only = single_column_only
        self._cost_cache = cost_cache

    def select(
        self,
        workload: Workload,
        candidates: list[CandidateIndex],
        evaluator: WorkloadEvaluator,
        budget_pages: int,
        lap: Callable[[str], None],
        degraded: list[DegradedResult],
        **options,
    ) -> Selection:
        """Pick candidate positions within ``budget_pages``.

        ``evaluator`` prices any position set of ``candidates`` for
        ``workload`` (already stripped of quarantined queries).
        ``lap(phase)`` charges the time since the previous lap to
        ``phase_seconds[phase]``; ``options`` are whatever the
        subclass's ``recommend`` passed to :meth:`_advise`.
        """
        raise NotImplementedError

    def _advise(
        self,
        workload: Workload,
        budget_pages: int,
        *,
        candidates: list[CandidateIndex] | None = None,
        fold: bool = False,
        **options,
    ) -> AdvisorResult:
        if budget_pages <= 0:
            raise AdvisorError("storage budget must be positive")
        started = time.perf_counter()
        phases: dict[str, float] = {}
        mark = started

        def lap(phase: str) -> None:
            nonlocal mark
            now = time.perf_counter()
            phases[phase] = phases.get(phase, 0.0) + (now - mark)
            mark = now

        queries_folded = 0
        if fold:
            # Deferred import: compress pulls in the online monitor's
            # canonicalizer, whose package imports this module.
            from repro.advisor.compress import fold_workload

            folded = fold_workload(workload)
            queries_folded = len(workload) - len(folded)
            workload = folded
            lap("compress")

        cache = self._cost_cache if self._cost_cache is not None else CostCache()
        bound = bind_workload(self._catalog, workload, cache)
        if candidates is None:
            candidates = generate_candidates(
                self._catalog,
                workload,
                max_per_table=self._max_per_table,
                single_column_only=self._single_column_only,
                bound=bound,
                cost_cache=cache,
            )
        lap("candidates")
        degraded: list[DegradedResult] = []
        models = self.build_models(
            workload, bound=bound, cost_cache=cache, degraded=degraded
        )
        workload = self._surviving(workload, models, degraded)
        lap("model_build")
        evaluator = WorkloadEvaluator(
            [models[q.name] for q in workload],
            [q.weight for q in workload],
            [c.index for c in candidates],
        )
        selection = self.select(
            workload, candidates, evaluator, budget_pages, lap, degraded,
            **options,
        )
        result = self._price_recommendation(
            workload, evaluator, candidates, selection, budget_pages
        )
        lap("apply_pricing")
        result.phase_seconds = phases
        result.elapsed_seconds = time.perf_counter() - started
        result.candidates_considered = len(candidates)
        result.optimizer_calls = sum(m.stats.optimizer_calls for m in models.values())
        result.combinations_truncated = sum(
            m.stats.combinations_truncated for m in models.values()
        )
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses
        result.cache_stats = cache.stats()
        result.degraded = degraded
        result.queries_folded = queries_folded
        return result

    # ------------------------------------------------------------------

    def build_models(
        self,
        workload: Workload,
        *,
        bound: dict[str, BoundQuery] | None = None,
        cost_cache: CostCache | None = None,
        degraded: list[DegradedResult] | None = None,
    ) -> dict[str, InumModel]:
        """One INUM model per workload query (exposed for baselines).

        Failing queries are quarantined (omitted, recorded on
        ``degraded``) rather than aborting the batch.
        """
        return build_inum_models(
            self._catalog,
            workload,
            self._config,
            cost_cache=cost_cache if cost_cache is not None else self._cost_cache,
            bound=bound,
            degraded=degraded,
        )

    @staticmethod
    def _surviving(
        workload: Workload,
        models: dict[str, InumModel],
        degraded: list[DegradedResult],
    ) -> Workload:
        """Drop quarantined queries; abort only when nothing is left."""
        if all(query.name in models for query in workload):
            return workload
        kept = [query for query in workload if query.name in models]
        if not kept:
            raise AdvisorError(
                "every workload query failed model construction: "
                + "; ".join(str(entry) for entry in degraded)
            )
        return Workload(
            queries=kept,
            name=workload.name,
            update_rates=dict(workload.update_rates),
        )

    @staticmethod
    def _price_recommendation(
        workload: Workload,
        evaluator: WorkloadEvaluator,
        candidates: list[CandidateIndex],
        selection: Selection,
        budget_pages: int,
    ) -> AdvisorResult:
        """Re-price the selection with full INUM estimates per query."""
        chosen_candidates = [candidates[p] for p in selection.positions]
        before_costs = evaluator.base_costs().tolist()
        after_costs, serving = evaluator.serving_indexes(selection.positions)

        per_query: list[QueryBenefit] = []
        cost_before = 0.0
        cost_after = 0.0
        for query, before_cost, after_cost, detail in zip(
            workload, before_costs, after_costs.tolist(), serving
        ):
            before = before_cost * query.weight
            after = after_cost * query.weight
            cost_before += before
            cost_after += after
            per_query.append(
                QueryBenefit(
                    name=query.name,
                    cost_before=before,
                    cost_after=after,
                    indexes_used=sorted(
                        {name for name in detail.values() if name is not None}
                    ),
                )
            )

        return AdvisorResult(
            indexes=[c.index for c in chosen_candidates],
            size_pages=sum(c.size_pages for c in chosen_candidates),
            budget_pages=budget_pages,
            cost_before=cost_before,
            cost_after=cost_after + selection.maintenance_cost,
            per_query=per_query,
            candidates_considered=0,  # filled by _advise()
            solver_nodes=selection.nodes,
            solver_status=selection.status,
            elapsed_seconds=0.0,
            # One before and one after estimate per surviving query.
            inum_estimates=2 * len(per_query),
            maintenance_cost=selection.maintenance_cost,
            candidates_pruned=selection.candidates_pruned,
        )


class IlpIndexAdvisor(IndexAdvisor):
    """The automatic index suggestion component."""

    def __init__(
        self,
        catalog: Catalog,
        config: PlannerConfig | None = None,
        solver_deadline: float | None = None,
        compress: bool = False,
        **pipeline,
    ) -> None:
        """Args (``pipeline`` goes to :class:`IndexAdvisor`):

        solver_deadline: Wall-clock cap (seconds) on one ILP solve.
            When the branch-and-bound search cannot produce an integer
            incumbent inside the cap, the advisor falls back to greedy
            selection over the same benefit matrix instead of raising.
        compress: Scale mode (CoPhy). Every ``recommend`` call first
            folds the workload onto canonical templates
            (:func:`repro.advisor.compress.fold_workload`) so advisor
            cost tracks query *shapes*, not raw statements. Because
            *all* inputs go through the same fold, advising a raw
            stream and advising its pre-compressed equivalent are
            bit-identical. The fold is the only difference: the
            program, its pruning and its solve are those of every
            advise.
        """
        super().__init__(catalog, config, **pipeline)
        self._solver_deadline = solver_deadline
        self._compress = compress

    def recommend(
        self,
        workload: Workload,
        budget_pages: int,
        update_rates: dict[str, float] | None = None,
        max_update_cost: float | None = None,
        refine: bool = True,
        candidates: list[CandidateIndex] | None = None,
    ) -> AdvisorResult:
        """Suggest the optimal index set within ``budget_pages``.

        Args:
            update_rates: Weighted row updates per table name. When
                given, index maintenance cost enters the objective (and
                the reported cost_after), so write-hot tables get fewer
                indexes.
            max_update_cost: Optional cap on total maintenance cost —
                the paper's user-supplied update-cost constraint.
            candidates: Inject a pre-generated candidate pool instead
                of enumerating one from this workload. The fleet tuner
                uses this to price every per-cluster advise against one
                shared pool, which keeps designs from different
                replicas directly comparable (and guarantees each is a
                subset of the pool the fleet evaluator was compiled
                for). The selection still only picks what benefits
                *this* workload within the budget.
            refine: Run a local-search polish over the ILP solution
                using *full* INUM configuration estimates. The ILP's
                benefit matrix is additive per index (INUM makes it so
                per relation), but cross-index interactions within one
                query can still leave slack; drop/add/swap moves priced
                with full estimates close it. Never worsens the result.
        """
        return self._advise(
            workload,
            budget_pages,
            candidates=candidates,
            fold=self._compress,
            update_rates=update_rates,
            max_update_cost=max_update_cost,
            refine=refine,
        )

    def select(
        self,
        workload: Workload,
        candidates: list[CandidateIndex],
        evaluator: WorkloadEvaluator,
        budget_pages: int,
        lap: Callable[[str], None],
        degraded: list[DegradedResult],
        *,
        update_rates: dict[str, float] | None,
        max_update_cost: float | None,
        refine: bool,
    ) -> Selection:
        """Benefit matrix → dominance pruning → ILP → refinement."""
        benefits = self._benefit_matrix(workload, evaluator)
        maintenance = self._maintenance_costs(candidates, update_rates)
        lap("benefit_matrix")

        # Sub-threshold savings clip to exactly 0, so pruning and the
        # solve agree on what counts as benefit.
        raw = benefits.array
        kept = prune_dominated(
            candidates,
            np.where(raw > _MIN_BENEFIT, raw, 0.0),
            [maintenance.get(p, 0.0) for p in range(len(candidates))],
        )
        candidates_pruned = len(candidates) - len(kept)
        if candidates_pruned:
            # Rebuild the benefit mapping without the pruned positions,
            # preserving iteration order — that order fixes solver
            # variable order downstream.
            allowed = set(kept)
            benefits = {
                key: value for key, value in benefits.items()
                if key[1] in allowed
            }
        lap("prune")

        try:
            selection = self._solve(
                workload, candidates, benefits, budget_pages, maintenance,
                max_update_cost,
            )
        except (SolverError, FaultInjected) as exc:
            # Degradation ladder: an exhausted or crashed solver is
            # replaced by greedy selection over the same benefit
            # matrix. The refine pass below then polishes with full
            # INUM estimates, so quality degrades gracefully.
            degraded.append(
                DegradedResult("solver.iterate", "ilp", "fallback", str(exc))
            )
            selection = Selection(
                self._greedy_fallback(
                    candidates, benefits, budget_pages, maintenance,
                    max_update_cost,
                ),
                "greedy-fallback",
            )
        lap("solve")
        if refine:
            selection.positions = self._refine(
                candidates, evaluator, selection.positions, budget_pages,
                maintenance, max_update_cost,
            )
        lap("refine")
        selection.candidates_pruned = candidates_pruned
        selection.maintenance_cost = sum(
            maintenance.get(p, 0.0) for p in selection.positions
        )
        return selection

    @staticmethod
    def _benefit_matrix(
        workload: Workload, evaluator: WorkloadEvaluator
    ) -> BenefitMatrix:
        """Weighted single-index benefits benefit[(query, cand_idx)].

        All (query × candidate) savings come out of one
        singleton-configuration array evaluation. The mapping iterates
        query-by-query in workload order, candidate positions
        ascending — that order fixes solver variable order and
        fallback accumulation, so it is part of the bit-identity
        contract.
        """
        base = evaluator.base_costs()
        singles = evaluator.singleton_costs()
        weights = [query.weight for query in workload]
        savings = (base[:, None] - singles) * np.asarray(weights)[:, None]
        return BenefitMatrix(
            [query.name for query in workload], savings, _MIN_BENEFIT
        )

    def _maintenance_costs(
        self,
        candidates: list[CandidateIndex],
        update_rates: dict[str, float] | None,
    ) -> dict[int, float]:
        """Per-candidate maintenance cost under the update model.

        One row update against a table descends each of its B-Trees and
        dirties a leaf page: charge ``rate × (random_page_cost +
        50 × cpu_operator_cost)`` per index, in optimizer cost units.
        """
        if not update_rates:
            return {}
        config = self._config
        per_update = config.random_page_cost + 50 * config.cpu_operator_cost
        costs: dict[int, float] = {}
        for position, candidate in enumerate(candidates):
            rate = update_rates.get(candidate.index.table_name, 0.0)
            if rate > 0:
                costs[position] = rate * per_update
        return costs

    def _solve(
        self,
        workload: Workload,
        candidates: list[CandidateIndex],
        benefits: Mapping[tuple[str, int], float],
        budget_pages: int,
        maintenance: dict[int, float],
        max_update_cost: float | None,
    ) -> Selection:
        """Build and solve the ILP; returns the chosen positions with
        the solver's status and node count.

        One program for every advise, scale mode included: a per-pair
        coupling row ``y_{q,i} <= x_i`` for every benefit entry. The
        rows grow with queries × useful candidates, but their LP
        relaxation is tight, so the search stays a handful of nodes.
        """
        if not benefits:
            return Selection([], "no-benefit")

        useful = sorted({position for (_q, position) in benefits})
        program = LinearProgram(name="index-selection")
        x_vars = {
            position: program.add_binary(f"x_{position}") for position in useful
        }
        y_vars: dict[tuple[str, int], object] = {}
        objective: dict[object, float] = {}
        for (query_name, position), saving in benefits.items():
            y = program.add_binary(f"y_{query_name}_{position}")
            y_vars[(query_name, position)] = y
            objective[y] = saving
            program.add_constraint(
                {y: 1.0, x_vars[position]: -1.0}, Sense.LE, 0.0
            )
        for position, cost in maintenance.items():
            if position in x_vars:
                objective[x_vars[position]] = -cost
        program.set_objective(objective)

        if max_update_cost is not None and maintenance:
            program.add_constraint(
                {
                    x_vars[p]: maintenance[p]
                    for p in useful
                    if p in maintenance
                },
                Sense.LE,
                max_update_cost,
            )

        # One access path per table per query.
        for query in workload:
            by_table: dict[str, list[object]] = {}
            for position in useful:
                if (query.name, position) in y_vars:
                    table = candidates[position].index.table_name
                    by_table.setdefault(table, []).append(
                        y_vars[(query.name, position)]
                    )
            for ys in by_table.values():
                if len(ys) > 1:
                    program.add_exclusive(ys)

        # Storage budget over Equation-1 sizes.
        program.add_constraint(
            {x_vars[p]: float(candidates[p].size_pages) for p in useful},
            Sense.LE,
            float(budget_pages),
        )

        solver = BranchAndBoundSolver(
            max_nodes=_MAX_NODES,
            deadline_seconds=self._solver_deadline,
        )
        solution = solver.solve(program)
        chosen = (
            [p for p in useful if solution.value(f"x_{p}") > 0.5]
            if solution.has_solution
            else []
        )
        return Selection(chosen, solution.status, solution.nodes_explored)

    @staticmethod
    def _greedy_fallback(
        candidates: list[CandidateIndex],
        benefits: Mapping[tuple[str, int], float],
        budget_pages: int,
        maintenance: dict[int, float],
        max_update_cost: float | None,
    ) -> list[int]:
        """Greedy selection over the ILP's own benefit matrix.

        Used when the exact solver cannot deliver: rank candidates by
        total weighted benefit net of maintenance and take them in
        order while the storage and update budgets hold. Deterministic
        (ties broken by candidate position); typically within a few
        percent of the ILP on the paper's workloads, and the refine
        pass recovers most of the rest.
        """
        total: dict[int, float] = {}
        for (_query, position), saving in benefits.items():
            total[position] = total.get(position, 0.0) + saving
        order = sorted(
            total,
            key=lambda p: (-(total[p] - maintenance.get(p, 0.0)), p),
        )
        chosen: list[int] = []
        used_pages = 0
        upkeep = 0.0
        for position in order:
            gain = total[position] - maintenance.get(position, 0.0)
            if gain <= _MIN_BENEFIT:
                continue
            size = candidates[position].size_pages
            if used_pages + size > budget_pages:
                continue
            cost = maintenance.get(position, 0.0)
            if (
                max_update_cost is not None
                and upkeep + cost > max_update_cost + 1e-9
            ):
                continue
            chosen.append(position)
            used_pages += size
            upkeep += cost
        return sorted(chosen)

    @staticmethod
    def _refine(
        candidates: list[CandidateIndex],
        evaluator: WorkloadEvaluator,
        chosen: list[int],
        budget_pages: int,
        maintenance: dict[int, float],
        max_update_cost: float | None,
        max_rounds: int = 6,
    ) -> list[int]:
        """Hill-climb over full INUM estimates: drop, add, swap.

        Adds and swaps are accepted only when the full-estimate workload
        cost (plus maintenance) strictly improves, drops when it does not
        rise, and always with the storage/update budgets satisfied, so
        the result dominates the ILP seed and keeps no index whose
        removal costs nothing. Adds and swaps draw from every candidate,
        the pruned ones too: pruning is exact for the ILP's
        one-access-path-per-table model, but a query that reads one
        table through two aliases can use a dominated index beside its
        dominator.
        """
        pool = range(len(candidates))

        # The climb re-prices configurations it has already seen (every
        # trial of the terminating round is a repeat); memoize on the
        # position set. The pricing itself is one array evaluation per
        # distinct configuration.
        cost_memo: dict[frozenset[int], float] = {}

        def total_cost(positions: list[int]) -> float:
            key = frozenset(positions)
            cached = cost_memo.get(key)
            if cached is not None:
                return cached
            cost = evaluator.workload_cost(positions) + sum(
                maintenance.get(p, 0.0) for p in positions
            )
            cost_memo[key] = cost
            return cost

        def fits(positions: list[int]) -> bool:
            if sum(candidates[p].size_pages for p in positions) > budget_pages:
                return False
            if max_update_cost is not None:
                upkeep = sum(maintenance.get(p, 0.0) for p in positions)
                if upkeep > max_update_cost + 1e-9:
                    return False
            return True

        def prefetch(current: list[int]) -> None:
            """Batch-price this round's trial configurations.

            Speculative: every trial is evaluated against the
            round-start configuration in a handful of array ops and
            memoized. The sequential scan below then mostly hits the
            memo; after an accept changes ``current``, later trials
            miss and are priced individually — the accept/ordering
            semantics (and every float) stay exactly those of pricing
            one trial at a time.
            """
            evaluator.prime(
                [[p for p in current if p != position] for position in current]
            )
            extras = [
                p for p in pool if p not in current and fits(current + [p])
            ]
            evaluator.prime_extensions(current, extras)
            pairs = []
            in_current = set(current)
            for position in pool:
                if position in in_current:
                    continue
                table = candidates[position].index.table_name
                for existing in current:
                    if candidates[existing].index.table_name != table:
                        continue
                    swap = [p for p in current if p != existing] + [position]
                    if fits(swap):
                        pairs.append((existing, position))
            evaluator.prime_swaps(current, pairs)

        current = list(chosen)
        current_cost = total_cost(current)
        for _ in range(max_rounds):
            improved = False
            prefetch(current)
            # Drops: an index whose interactions made it redundant. A
            # drop that leaves the cost where it was is taken too (no
            # dead indexes, whichever optimal vertex the ILP landed
            # on), but only a strict gain buys another round.
            for position in list(current):
                trial = [p for p in current if p != position]
                cost = total_cost(trial)
                if cost <= current_cost:
                    improved = improved or cost < current_cost - 1e-9
                    current, current_cost = trial, cost
            # Adds and same-table swaps.
            for position in pool:
                if position in current:
                    continue
                addition = current + [position]
                if fits(addition):
                    cost = total_cost(addition)
                    if cost < current_cost - 1e-9:
                        current, current_cost = addition, cost
                        improved = True
                        continue
                table = candidates[position].index.table_name
                for existing in list(current):
                    if candidates[existing].index.table_name != table:
                        continue
                    swap = [p for p in current if p != existing] + [position]
                    if not fits(swap):
                        continue
                    cost = total_cost(swap)
                    if cost < current_cost - 1e-9:
                        current, current_cost = swap, cost
                        improved = True
                        break
            if not improved:
                break
        return sorted(current)
