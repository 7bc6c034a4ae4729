"""Divergent-design tuning: cluster → tune → route, to convergence.

PARINDA tunes one catalog. A production deployment serving the same
workload from N replicas has a strictly larger design space: each
replica can carry a *different* index set, and a statement can run on
whichever replica prices it cheapest. The fleet tuner searches that
space with the RITA-style alternating loop:

1. **Cluster** — embed every workload template as an index-utilization
   feature vector (:class:`~repro.fleet.clusterer.WorkloadClusterer`,
   priced through the batched INUM evaluator) and k-partition them,
   one cluster per replica.
2. **Tune** — advise each cluster in turn through the tuner's one
   :class:`~repro.advisor.ilp_advisor.IlpIndexAdvisor`, on the primary
   catalog and the fleet cost cache. Every cluster prices against the
   *same* shared candidate pool (the advisor's ``candidates=``
   injection), so designs from different replicas are directly
   comparable, and its bound queries and INUM models are the ones the
   clustering step already built. The resilience ladder — per-query
   quarantine, solver fallback — stays intact per cluster: one failing
   replica advise degrades to its previous design instead of aborting
   the fleet.
3. **Route** — re-price every template against every replica's new
   design in one batched evaluation and reassign each template to its
   cheapest replica (deterministic tie-break, optional load cap via
   :class:`~repro.fleet.router.Router`). The routed assignment becomes
   the next round's clustering.

The loop reaches a **fixed point when a route step changes no
assignment**: re-tuning identical clusters reproduces identical
designs (every advisor run is deterministic), so no further round can
change anything. Oscillation is bounded by ``max_rounds``; the result
reports ``converged`` either way and carries the full per-round
total-fleet-cost history.

Writes are replicated — every replica applies every INSERT/UPDATE/
DELETE — so the workload's ``update_rates`` are handed to *each*
per-cluster advisor unscaled, and write-hot tables suppress indexes on
every replica. The headline ``total_cost`` is the routed read cost
(Σ weight × cost of each template on its replica), the quantity
routing can actually change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.advisor.candidates import CandidateIndex, generate_candidates
from repro.advisor.ilp_advisor import AdvisorResult, IlpIndexAdvisor
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index, index_signature
from repro.errors import AdvisorError, ReproError
from repro.fleet.clusterer import WorkloadClusterer
from repro.fleet.router import Router
from repro.inum.batch import WorkloadEvaluator
from repro.online.monitor import WorkloadMonitor, canonicalize
from repro.optimizer.config import PlannerConfig
from repro.parallel.caches import CostCache
from repro.parallel.engine import bind_workload
from repro.resilience.degrade import DegradedResult
from repro.workloads.workload import Query, Workload


@dataclass
class Replica:
    """A fleet member as the tuner sees it: an id and a standing design.

    Replicas share the primary catalog and the fleet cost cache; what
    makes them *diverge* is only the design each one adopts.
    """

    replica_id: int
    design: tuple[Index, ...] = ()
    #: The AdvisorResult behind the current design (None until the
    #: first adopt, or when the design was inherited unchanged).
    result: AdvisorResult | None = field(default=None, repr=False)
    #: Tuning rounds in which this replica re-advised.
    tuned_rounds: int = 0

    def adopt(
        self, design: Iterable[Index], result: AdvisorResult | None = None
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


@dataclass(frozen=True)
class FleetRound:
    """One cluster→tune→route iteration, as seen from outside."""

    number: int  # 1-based
    total_cost: float  # routed read cost after this round's tuning
    assignment: tuple[int, ...]  # template -> replica, workload order
    reassigned: int  # templates the route step moved
    cluster_sizes: tuple[int, ...]  # templates tuned per replica
    replica_costs: tuple[float, ...]  # routed cost served per replica
    designs_changed: bool  # any replica adopted a different design


@dataclass
class FleetResult:
    """Outcome of one divergent-design tuning run."""

    replicas: list[Replica]
    rounds: list[FleetRound]
    assignment: dict[str, int]  # template name -> replica id (final)
    total_cost: float  # routed read cost under the final designs
    converged: bool  # routing reached a fixed point within max_rounds
    router: Router  # ready to route live statements
    candidates_considered: int
    elapsed_seconds: float
    degraded: list[DegradedResult] = field(default_factory=list)

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def designs(self) -> list[tuple[Index, ...]]:
        return [replica.design for replica in self.replicas]


@dataclass
class UniformBaseline:
    """The N-copies-of-one-design comparison point."""

    result: AdvisorResult
    total_cost: float  # same metric as FleetResult.total_cost


class DivergentTuner:
    """Tune an N-replica fleet to a divergent, routed design.

    Every advise the tuner runs — the clustering step's model build,
    each per-cluster ``recommend`` and :meth:`uniform_baseline` — goes
    through one :class:`IlpIndexAdvisor` on ``catalog`` and the fleet
    ``cost_cache``, so a template is bound and modelled once per
    catalog version, not once per replica per round.

    Args:
        catalog: The primary catalog every replica is advised on.
        n_replicas: Fleet width (clusters, replicas, router columns).
        budget_pages: Per-replica storage budget — every replica gets
            the same budget, as hardware-identical replicas do.
        max_rounds: Cluster→tune→route iteration cap.
        seed: Clustering seed; a fixed (workload, seed) pair makes the
            whole run deterministic.
        max_share: Router load cap (fraction of routed weight one
            replica may serve); 1.0 disables balancing.
        cost_cache: The fleet cache for candidate sizing, binding and
            INUM models, shared by every advise. Defaults to a fresh
            unbounded cache.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: PlannerConfig | None = None,
        *,
        n_replicas: int,
        budget_pages: int,
        max_rounds: int = 8,
        seed: int = 0,
        max_share: float = 1.0,
        cost_cache: CostCache | None = None,
    ) -> None:
        if n_replicas <= 0:
            raise ReproError("n_replicas must be positive")
        if budget_pages <= 0:
            raise ReproError("budget_pages must be positive")
        if max_rounds <= 0:
            raise ReproError("max_rounds must be positive")
        self._catalog = catalog
        self.n_replicas = n_replicas
        self.budget_pages = budget_pages
        self.max_rounds = max_rounds
        self.seed = seed
        self.max_share = max_share
        self._cache = cost_cache if cost_cache is not None else CostCache()
        self._advisor = IlpIndexAdvisor(catalog, config, cost_cache=self._cache)

    # ------------------------------------------------------------------

    def tune(
        self,
        workload: "Workload | WorkloadMonitor",
        max_rounds: int | None = None,
    ) -> FleetResult:
        """Run cluster→tune→route until routing stops moving templates.

        ``workload`` is a plain :class:`Workload` or a live
        :class:`~repro.online.monitor.WorkloadMonitor` — the monitor
        path snapshots the window and weights templates by
        :meth:`~repro.online.monitor.WorkloadMonitor.utilization_profile`.
        """
        started = time.perf_counter()
        rounds_cap = max_rounds if max_rounds is not None else self.max_rounds
        workload = self._coerce_workload(workload)
        degraded: list[DegradedResult] = []

        candidates, evaluator, workload = self._prepare(workload, degraded)
        position_of = {
            index_signature(c.index): p for p, c in enumerate(candidates)
        }
        weights = [query.weight for query in workload]

        clusterer = WorkloadClusterer(self.n_replicas, seed=self.seed)
        assignment = clusterer.cluster(
            evaluator.utilization_fractions(), weights
        )
        replicas = [Replica(r) for r in range(self.n_replicas)]

        rounds: list[FleetRound] = []
        converged = False
        costs = np.zeros((len(workload), self.n_replicas))
        for number in range(1, rounds_cap + 1):
            clusters: list[list[int]] = [[] for _ in range(self.n_replicas)]
            for qi, r in enumerate(assignment):
                clusters[r].append(qi)
            designs_changed = self._tune_clusters(
                workload, clusters, replicas, candidates, degraded
            )
            costs = evaluator.per_query_costs(
                [
                    self._positions(replica.design, position_of)
                    for replica in replicas
                ]
            )  # (templates, replicas): one config column per design
            new_assignment, total, replica_costs = self._route(
                workload, costs
            )
            reassigned = sum(
                1 for a, b in zip(assignment, new_assignment) if a != b
            )
            rounds.append(
                FleetRound(
                    number=number,
                    total_cost=total,
                    assignment=tuple(new_assignment),
                    reassigned=reassigned,
                    cluster_sizes=tuple(len(c) for c in clusters),
                    replica_costs=tuple(replica_costs),
                    designs_changed=designs_changed,
                )
            )
            if new_assignment == assignment:
                # Routing is a fixed point: re-tuning these exact
                # clusters reproduces these exact designs, so nothing
                # can change in any later round.
                converged = True
                break
            assignment = new_assignment

        router = Router(
            {
                query.name: tuple(costs[qi].tolist())
                for qi, query in enumerate(workload)
            },
            self.n_replicas,
            max_share=self.max_share,
            fingerprints=self._fingerprints(workload),
        )
        return FleetResult(
            replicas=replicas,
            rounds=rounds,
            assignment={
                query.name: assignment[qi]
                for qi, query in enumerate(workload)
            },
            total_cost=rounds[-1].total_cost,
            converged=converged,
            router=router,
            candidates_considered=len(candidates),
            elapsed_seconds=time.perf_counter() - started,
            degraded=degraded,
        )

    def uniform_baseline(
        self, workload: "Workload | WorkloadMonitor"
    ) -> UniformBaseline:
        """The best single design copied to every replica.

        Tuned with the same per-replica budget and priced with the same
        evaluator arithmetic as the divergent run, so the two totals
        are directly comparable: under a uniform design routing cannot
        help, and the fleet total is just the workload's cost under
        that one design.
        """
        workload = self._coerce_workload(workload)
        degraded: list[DegradedResult] = []
        candidates, evaluator, workload = self._prepare(workload, degraded)
        result = self._advisor.recommend(
            workload,
            self.budget_pages,
            update_rates=dict(workload.update_rates) or None,
            candidates=candidates,
        )
        position_of = {
            index_signature(c.index): p for p, c in enumerate(candidates)
        }
        per_query = evaluator.per_query_costs(
            [self._positions(tuple(result.indexes), position_of)]
        )[:, 0]
        total = 0.0
        for qi, query in enumerate(workload):
            total += float(per_query[qi]) * query.weight
        return UniformBaseline(result=result, total_cost=total)

    # ------------------------------------------------------------------
    # Pipeline stages

    def _coerce_workload(
        self, source: "Workload | WorkloadMonitor"
    ) -> Workload:
        """Accept a plain workload or a live monitor.

        The monitor path is the fleet's CoPhy-style workload
        compression: templates instead of raw statements, weighted by
        the monitor's normalized
        :meth:`~repro.online.monitor.WorkloadMonitor.utilization_profile`
        (held/quarantined templates and templates that slid out of the
        window contribute nothing), with the window's DML rates riding
        along for the maintenance model.
        """
        if not isinstance(source, WorkloadMonitor):
            return source
        profile = source.utilization_profile()
        if not profile:
            raise AdvisorError(
                "monitor has no advisable templates in its window"
            )
        snapshot = source.snapshot(name=f"fleet@{source.observed}")
        return Workload(
            queries=[
                Query(name=q.name, sql=q.sql, weight=profile[q.name])
                for q in snapshot
                if q.name in profile
            ],
            name=snapshot.name,
            update_rates=dict(snapshot.update_rates),
        )

    def _prepare(
        self, workload: Workload, degraded: list[DegradedResult]
    ) -> tuple[list[CandidateIndex], WorkloadEvaluator, Workload]:
        """Shared pool + fleet evaluator over the surviving workload."""
        bound = bind_workload(self._catalog, workload, self._cache)
        candidates = generate_candidates(
            self._catalog, workload, bound=bound, cost_cache=self._cache
        )
        models = self._advisor.build_models(
            workload, bound=bound, degraded=degraded
        )
        workload = IlpIndexAdvisor._surviving(workload, models, degraded)
        evaluator = WorkloadEvaluator(
            [models[query.name] for query in workload],
            [query.weight for query in workload],
            [c.index for c in candidates],
        )
        return candidates, evaluator, workload

    def _tune_clusters(
        self,
        workload: Workload,
        clusters: list[list[int]],
        replicas: list[Replica],
        candidates: list[CandidateIndex],
        degraded: list[DegradedResult],
    ) -> bool:
        """One advisor run per non-empty cluster, in replica order.

        Returns True when any replica's design changed. A cluster whose
        advise fails outright keeps the replica's previous design (a
        stale-but-valid design beats an empty one on a live fleet) and
        records a ``fallback`` degradation, so the fleet round
        completes.
        """
        update_rates = dict(workload.update_rates) or None
        changed = False
        for replica, queries in zip(replicas, clusters):
            design: tuple[Index, ...] = ()
            result: AdvisorResult | None = None
            if queries:
                sub = Workload(
                    queries=[workload.queries[qi] for qi in queries],
                    name=f"{workload.name}/replica{replica.replica_id}",
                    update_rates=dict(workload.update_rates),
                )
                try:
                    result = self._advisor.recommend(
                        sub,
                        self.budget_pages,
                        update_rates=update_rates,
                        candidates=candidates,
                    )
                except ReproError as exc:
                    degraded.append(
                        DegradedResult(
                            "fleet.advise",
                            f"replica {replica.replica_id}",
                            "fallback",
                            f"cluster advise failed ({exc}); keeping the "
                            "previous design",
                        )
                    )
                    continue  # the previous design stands
                design = tuple(result.indexes)
                degraded.extend(result.degraded)
            before = replica.design_signatures
            replica.adopt(design, result)
            if replica.design_signatures != before:
                changed = True
        return changed

    def _route(
        self, workload: Workload, costs: np.ndarray
    ) -> tuple[list[int], float, list[float]]:
        """Assign each template to its cheapest replica, under the cap.

        Deterministic by construction: templates are routed in workload
        order through a fresh :class:`Router` (min cost, ties to the
        lowest replica id), and the weighted total accumulates in the
        same order.
        """
        router = Router(
            {
                query.name: tuple(costs[qi].tolist())
                for qi, query in enumerate(workload)
            },
            self.n_replicas,
            max_share=self.max_share,
        )
        assignment: list[int] = []
        total = 0.0
        replica_costs = [0.0] * self.n_replicas
        for qi, query in enumerate(workload):
            chosen = router.route_template(query.name, weight=query.weight)
            assignment.append(chosen)
            served = float(costs[qi, chosen]) * query.weight
            total += served
            replica_costs[chosen] += served
        return assignment, total, replica_costs

    @staticmethod
    def _positions(
        design: tuple[Index, ...],
        position_of: dict[tuple[str, tuple[str, ...]], int],
    ) -> list[int]:
        """Pool positions of a design (drawn from the shared pool)."""
        return [
            position_of[sig]
            for sig in (index_signature(ix) for ix in design)
            if sig in position_of
        ]

    @staticmethod
    def _fingerprints(workload: Workload) -> dict[str, str]:
        """Canonical fingerprint -> template name, for live routing."""
        fingerprints: dict[str, str] = {}
        for query in workload:
            try:
                fingerprints[canonicalize(query.sql)] = query.name
            except ReproError:  # pragma: no cover - untemplatable SQL
                continue
        return fingerprints
