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
additive per table. The savings live in one dense ``(queries ×
candidates)`` array, and the program has one ``y`` per nonzero entry.
The final recommendation is re-priced with full INUM estimates over the
chosen configuration, so the reported speedup never relies on the
additivity assumption.

:func:`greedy_select` is the one greedy search: the greedy baseline
runs it over every candidate, and the advisor falls back to it over the
pruned pool when the solver fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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

# Rounds of the refine climb: each is a drop pass, then one add/swap
# scan of the pool; a round with no strict gain ends the climb.
_MAX_REFINE_ROUNDS = 6


def maintenance_cost(config: PlannerConfig, rate: float) -> float:
    """Upkeep of one index under ``rate`` row updates of its table.

    One row update descends each of the table's B-Trees and dirties a
    leaf page: ``rate × (random_page_cost + 50 × cpu_operator_cost)``,
    in optimizer cost units. The advisor's objective and the online
    tuner's hysteresis both charge it.
    """
    return rate * (config.random_page_cost + 50 * config.cpu_operator_cost)


def greedy_select(
    candidates: list[CandidateIndex],
    evaluator: WorkloadEvaluator,
    pool: Sequence[int],
    budget_pages: int,
    maintenance: Sequence[float],
    max_update_cost: float | None = None,
    per_page: bool = False,
) -> list[int]:
    """Greedy marginal-benefit search over full INUM estimates.

    Start from the empty configuration and repeatedly add the ``pool``
    position whose extension saves the most workload cost net of its
    upkeep (per storage page with ``per_page``), while the storage
    budget and the update cap hold; stop when nothing saves more than
    the benefit floor. Each round prices every ``current + [p]``
    extension in one :meth:`WorkloadEvaluator.extension_costs`
    evaluation and scans them in pool order, so ties fall to the
    earliest position. Returns the positions in the order taken.
    """
    chosen: list[int] = []
    remaining = list(pool)
    used_pages = 0
    upkeep = 0.0
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
            charge = maintenance[position]
            if (
                max_update_cost is not None
                and upkeep + charge > max_update_cost + 1e-9
            ):
                continue
            trial_cost = float(trials[slot])
            saving = current_cost - trial_cost - charge
            if saving <= _MIN_BENEFIT:
                continue
            score = saving / size if per_page else saving
            if score > best_score:
                best_score = score
                best_slot = slot
                best_cost = trial_cost
        if best_slot is None:
            return chosen
        position = remaining.pop(best_slot)
        chosen.append(position)
        used_pages += candidates[position].size_pages
        upkeep += maintenance[position]
        current_cost = best_cost


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
            incumbent inside the cap, the advisor falls back to
            :func:`greedy_select` over the pruned pool instead of
            raising.
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
        """Benefit matrix → dominance pruning → ILP → refinement.

        The one savings array feeds pruning, which zeroes the pruned
        columns, and then the program. When the solver fails, the
        greedy search over the pruned pool takes the program's place.
        """
        benefits = self._benefit_matrix(workload, evaluator)
        maintenance = self._maintenance_costs(candidates, update_rates)
        lap("benefit_matrix")

        kept = prune_dominated(candidates, benefits, maintenance)
        candidates_pruned = len(candidates) - len(kept)
        benefits[:, np.setdiff1d(np.arange(len(candidates)), kept)] = 0.0
        lap("prune")

        try:
            selection = self._solve(
                workload, candidates, benefits, budget_pages, maintenance,
                max_update_cost,
            )
        except (SolverError, FaultInjected) as exc:
            # Degradation ladder: an exhausted or crashed solver is
            # replaced by the greedy search over the pruned pool, priced
            # with full INUM estimates; the refine pass below then
            # climbs from its design.
            degraded.append(
                DegradedResult("solver.iterate", "ilp", "fallback", str(exc))
            )
            selection = Selection(
                sorted(
                    greedy_select(
                        candidates, evaluator, kept, budget_pages,
                        maintenance, max_update_cost,
                    )
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
            maintenance[p] for p in selection.positions
        )
        return selection

    @staticmethod
    def _benefit_matrix(
        workload: Workload, evaluator: WorkloadEvaluator
    ) -> np.ndarray:
        """Weighted single-index savings ``benefit[q, position]``.

        All (query × candidate) savings come out of one
        singleton-configuration array evaluation. Entries at or below
        the benefit floor — and NaN rows, models with no usable plan
        cache — are clipped to exactly 0, so pruning and the solve
        agree on what counts as benefit.
        """
        base = evaluator.base_costs()
        singles = evaluator.singleton_costs()
        weights = [query.weight for query in workload]
        savings = (base[:, None] - singles) * np.asarray(weights)[:, None]
        return np.where(savings > _MIN_BENEFIT, savings, 0.0)

    def _maintenance_costs(
        self,
        candidates: list[CandidateIndex],
        update_rates: dict[str, float] | None,
    ) -> list[float]:
        """Per-candidate :func:`maintenance_cost` under the update rates
        (0 for a candidate whose table takes no updates)."""
        rates = update_rates or {}
        costs = []
        for candidate in candidates:
            rate = rates.get(candidate.index.table_name, 0.0)
            costs.append(
                maintenance_cost(self._config, rate) if rate > 0 else 0.0
            )
        return costs

    def _solve(
        self,
        workload: Workload,
        candidates: list[CandidateIndex],
        benefits: np.ndarray,
        budget_pages: int,
        maintenance: list[float],
        max_update_cost: float | None,
    ) -> Selection:
        """Build and solve the ILP; returns the chosen positions with
        the solver's status and node count.

        One program for every advise, scale mode included: one ``y``
        and one per-pair coupling row ``y_{q,i} <= x_i`` for every
        nonzero ``benefits`` entry, query by query in workload order,
        positions ascending. The rows grow with queries × useful
        candidates, but their LP relaxation is tight, so the search
        stays a handful of nodes.
        """
        if not benefits.any():
            return Selection([], "no-benefit")

        useful = np.flatnonzero(benefits.any(axis=0)).tolist()
        program = LinearProgram(name="index-selection")
        x_vars = {
            position: program.add_binary(f"x_{position}") for position in useful
        }
        objective: dict[object, float] = {}
        # Per query, its y variables grouped by table: one access path
        # per table per query.
        exclusive: list[dict[str, list[object]]] = []
        for query, row in zip(workload, benefits):
            by_table: dict[str, list[object]] = {}
            for position in np.flatnonzero(row).tolist():
                y = program.add_binary(f"y_{query.name}_{position}")
                objective[y] = float(row[position])
                program.add_constraint(
                    {y: 1.0, x_vars[position]: -1.0}, Sense.LE, 0.0
                )
                table = candidates[position].index.table_name
                by_table.setdefault(table, []).append(y)
            exclusive.append(by_table)
        for position in useful:
            if maintenance[position]:
                objective[x_vars[position]] = -maintenance[position]
        program.set_objective(objective)

        if max_update_cost is not None and any(maintenance):
            program.add_constraint(
                {x_vars[p]: maintenance[p] for p in useful},
                Sense.LE,
                max_update_cost,
            )

        for by_table in exclusive:
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
    def _refine(
        candidates: list[CandidateIndex],
        evaluator: WorkloadEvaluator,
        chosen: list[int],
        budget_pages: int,
        maintenance: list[float],
        max_update_cost: float | None,
    ) -> list[int]:
        """Hill-climb over full INUM estimates: drop, add, swap.

        Adds and swaps are accepted only when the full-estimate workload
        cost (plus maintenance) strictly improves, drops when it does not
        rise, and always with the storage/update budgets satisfied, so
        the result dominates its seed (the ILP's design, or the greedy
        fallback's) and keeps no index whose removal costs nothing. Adds
        and swaps draw from every candidate, the pruned ones too:
        pruning is exact for the ILP's one-access-path-per-table model,
        but a query that reads one table through two aliases can use a
        dominated index beside its dominator.

        Each round is a drop pass over the current indexes, then one
        scan of the pool in position order: at each open position an
        improving add is taken, else a swap with the first same-table
        index (in the design's list order) whose swap improves. The
        scan is priced in array batches from a cursor: every open
        position at or past it is priced at once
        (:meth:`WorkloadEvaluator.prime_extensions` and
        :meth:`~WorkloadEvaluator.prime_swaps`), the first improving
        move is taken, and pricing resumes past its position. That is
        the move a one-trial-at-a-time scan would take, with the same
        floats: upkeep sums run in the design's list order, then the
        incoming position.
        """
        n = len(candidates)
        sizes = np.array([c.size_pages for c in candidates], dtype=np.int64)
        upkeep = np.asarray(maintenance, dtype=np.float64)
        _, tables = np.unique(
            [c.index.table_name for c in candidates], return_inverse=True
        )
        limit = None if max_update_cost is None else max_update_cost + 1e-9

        def total_cost(positions: list[int]) -> float:
            return evaluator.workload_cost(positions) + sum(
                maintenance[p] for p in positions
            )

        def affordable(
            used: int, spent: float, incoming: np.ndarray
        ) -> np.ndarray:
            """Budget mask for each of ``incoming`` joining a design
            that holds ``used`` pages and ``spent`` upkeep."""
            mask = used + sizes[incoming] <= budget_pages
            if limit is not None:
                mask &= ~(spent + upkeep[incoming] > limit)
            return mask

        def next_move(
            current: list[int], current_cost: float, cursor: int
        ) -> tuple[list[int], float, int] | None:
            """The first improving add or swap at an open position at or
            past ``cursor``: the new design, its cost and the next
            cursor, or ``None``."""
            open_ = np.arange(n) >= cursor
            open_[current] = False
            bar = current_cost - 1e-9
            used = int(sizes[current].sum())
            spent = sum(maintenance[p] for p in current)

            extras = np.flatnonzero(open_)
            extras = extras[affordable(used, spent, extras)]
            costs = evaluator.prime_extensions(current, extras) + (
                spent + upkeep[extras]
            )
            adds = np.flatnonzero(costs < bar)
            first_add = int(extras[adds[0]]) if adds.size else n

            # Swaps matter only before the first improving add: there
            # the add is taken.
            outs, ins, charges = [], [], []
            for existing in current:
                incoming = np.flatnonzero(
                    open_[:first_add]
                    & (tables[:first_add] == tables[existing])
                )
                left = [p for p in current if p != existing]
                spent_left = sum(maintenance[p] for p in left)
                incoming = incoming[
                    affordable(
                        used - int(sizes[existing]), spent_left, incoming
                    )
                ]
                outs.append(np.full(incoming.size, existing))
                ins.append(incoming)
                charges.append(spent_left + upkeep[incoming])
            if current:
                outs, ins = np.concatenate(outs), np.concatenate(ins)
                swap_costs = evaluator.prime_swaps(
                    current, np.column_stack([outs, ins])
                ) + np.concatenate(charges)
                swaps = np.flatnonzero(swap_costs < bar)
                if swaps.size:
                    # The lowest position; among its pairs, the first
                    # existing index in list order.
                    best = swaps[ins[swaps].argmin()]
                    position, existing = int(ins[best]), int(outs[best])
                    swap = [p for p in current if p != existing] + [position]
                    return swap, float(swap_costs[best]), position + 1
            if adds.size:
                cost = float(costs[adds[0]])
                return current + [first_add], cost, first_add + 1
            return None

        current = list(chosen)
        current_cost = total_cost(current)
        for _ in range(_MAX_REFINE_ROUNDS):
            improved = False
            evaluator.prime(
                [[p for p in current if p != position] for position in current]
            )
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
            # Adds and same-table swaps, one improving move at a time.
            move = next_move(current, current_cost, 0)
            while move is not None:
                current, current_cost, cursor = move
                improved = True
                move = next_move(current, current_cost, cursor)
            if not improved:
                break
        return sorted(current)
