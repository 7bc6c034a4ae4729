"""Fleet tests: clustering, replicas, routing, and divergent tuning.

A tune runs every advise on the primary catalog and the fleet cache;
an oracle re-advises each final cluster cold on a cloned catalog and a
fresh cache and must get the same result to the last bit.

The Router checks are property tests (seeded random cost tables and
weight streams): every priced statement lands on a minimum-cost
eligible replica, ties are deterministic across runs, and the
load-balance cap invariant ``load <= max_share * total + grain`` holds
after every single route.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.advisor.candidates import generate_candidates
from repro.advisor.ilp_advisor import IlpIndexAdvisor
from repro.catalog.schema import Index
from repro.cli import main as cli_main
from repro.core.parinda import Parinda
from repro.errors import AdvisorError, ReproError
from repro.fleet import (
    DivergentTuner,
    FleetController,
    Replica,
    Router,
    WorkloadClusterer,
)
from repro.inum.batch import WorkloadEvaluator
from repro.online.monitor import WorkloadMonitor, canonicalize
from repro.parallel import engine
from repro.parallel.caches import CostCache
from repro.parallel.engine import bind_workload
from repro.resilience import faults
from repro.resilience.faults import FaultInjector
from repro.workloads.sdss import build_sdss_database, sdss_workload
from repro.workloads.workload import Query, Workload

BUDGET_PAGES = 40  # tight per-replica budget: the divergence regime


@pytest.fixture(scope="module")
def sdss_db():
    return build_sdss_database(photo_rows=1500, seed=42)


@pytest.fixture(scope="module")
def sdss_wl():
    return sdss_workload()


@pytest.fixture(scope="module")
def fleet_result(sdss_db, sdss_wl):
    tuner = DivergentTuner(
        sdss_db.catalog, n_replicas=3, budget_pages=BUDGET_PAGES, seed=0
    )
    return tuner.tune(sdss_wl)


# ----------------------------------------------------------------------
# WorkloadClusterer


class TestClusterer:
    def features(self, m=12, p=6, seed=5):
        rng = np.random.default_rng(seed)
        return rng.random((m, p))

    def test_partitions_every_row(self):
        features = self.features()
        labels = WorkloadClusterer(3, seed=1).cluster(features)
        assert len(labels) == features.shape[0]
        assert set(labels) <= {0, 1, 2}
        # k-means++ seeding + empty repair: no cluster starves.
        assert len(set(labels)) == 3

    def test_deterministic_for_fixed_seed(self):
        features = self.features()
        weights = [float(w) for w in range(1, features.shape[0] + 1)]
        a = WorkloadClusterer(3, seed=9).cluster(features, weights)
        b = WorkloadClusterer(3, seed=9).cluster(features, weights)
        assert a == b

    def test_groups_by_similarity(self):
        # Two well-separated blobs must land in different clusters.
        features = np.array(
            [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]]
        )
        labels = WorkloadClusterer(2, seed=0).cluster(features)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_k_larger_than_rows(self):
        features = self.features(m=2)
        labels = WorkloadClusterer(5, seed=0).cluster(features)
        assert len(labels) == 2
        assert len(set(labels)) == 2

    def test_duplicate_rows_do_not_stall_seeding(self):
        features = np.ones((6, 3))
        labels = WorkloadClusterer(3, seed=0).cluster(features)
        assert len(labels) == 6

    def test_validation(self):
        with pytest.raises(ReproError):
            WorkloadClusterer(0)
        clusterer = WorkloadClusterer(2)
        with pytest.raises(ReproError):
            clusterer.cluster(np.zeros(3))  # 1-D
        with pytest.raises(ReproError):
            clusterer.cluster(np.zeros((3, 2)), weights=[1.0])  # misaligned
        with pytest.raises(ReproError):
            clusterer.cluster(np.zeros((2, 2)), weights=[1.0, 0.0])
        assert clusterer.cluster(np.zeros((0, 4))) == []


# ----------------------------------------------------------------------
# Utilization embedding (the clusterer's feature source)


class TestUtilizationFractions:
    def test_embedding_shape_and_range(self, sdss_db, sdss_wl):
        from repro.advisor.candidates import generate_candidates
        from repro.advisor.ilp_advisor import IlpIndexAdvisor

        catalog = sdss_db.catalog
        advisor = IlpIndexAdvisor(catalog)
        bound = bind_workload(catalog, sdss_wl)
        candidates = generate_candidates(catalog, sdss_wl, bound=bound)
        models = advisor.build_models(sdss_wl, bound=bound)
        evaluator = WorkloadEvaluator(
            [models[q.name] for q in sdss_wl],
            [q.weight for q in sdss_wl],
            [c.index for c in candidates],
        )
        fractions = evaluator.utilization_fractions()
        assert fractions.shape == (len(list(sdss_wl)), len(candidates))
        assert np.all(fractions >= 0.0) and np.all(fractions <= 1.0)
        # Something in the pool must benefit something in the workload.
        assert fractions.max() > 0.0
        # Consistency with the scalar contract: fraction = relative
        # singleton saving.
        base = evaluator.base_costs()
        singles = evaluator.singleton_costs()
        q, p = np.unravel_index(np.argmax(fractions), fractions.shape)
        assert fractions[q, p] == pytest.approx(
            (base[q] - singles[q, p]) / base[q]
        )


# ----------------------------------------------------------------------
# Replica


class TestReplica:
    def test_adopt_orders_design(self):
        replica = Replica(0)
        zz = Index(name="i1", table_name="zz", columns=("a",))
        aa = Index(name="i2", table_name="aa", columns=("b",))
        replica.adopt([zz, aa])
        assert [ix.table_name for ix in replica.design] == ["aa", "zz"]
        assert replica.design_signatures == (
            ("aa", ("b",)),
            ("zz", ("a",)),
        )
        assert replica.tuned_rounds == 1


# ----------------------------------------------------------------------
# Router (satellite: property tests)


def random_router(rng, n_templates=12, n_replicas=4, max_share=1.0):
    costs = {
        f"q{i:02d}": [rng.uniform(1.0, 100.0) for _ in range(n_replicas)]
        for i in range(n_templates)
    }
    return costs, Router(costs, n_replicas, max_share=max_share)


class TestRouterProperties:
    def test_routes_to_min_cost_replica(self):
        rng = random.Random(7)
        for _ in range(20):
            costs, router = random_router(rng)
            for name in costs:
                chosen = router.route_template(name)
                assert costs[name][chosen] == min(costs[name])

    def test_ties_break_deterministically_across_runs(self):
        costs = {"q": [5.0, 5.0, 9.0], "r": [3.0, 3.0, 3.0]}
        picks = set()
        for _ in range(10):
            router = Router(costs, 3)
            picks.add((router.route_template("q"), router.route_template("r")))
        assert picks == {(0, 0)}  # lowest replica id on ties, every run

    def test_cap_invariant_never_violated(self):
        rng = random.Random(23)
        for _ in range(15):
            n_replicas = rng.randint(2, 5)
            max_share = rng.uniform(1.0 / n_replicas, 1.0)
            costs, router = random_router(
                rng, n_replicas=n_replicas, max_share=max_share
            )
            names = list(costs)
            grain = 0.0
            for _ in range(200):
                weight = rng.uniform(0.1, 10.0)
                router.route_template(rng.choice(names), weight)
                grain = max(grain, weight)
                # The documented invariant, checked after EVERY route:
                # no replica holds more than its share plus one
                # statement's worth of granularity allowance.
                bound = router.max_share * router.total_weight + grain + 1e-6
                assert all(load <= bound for load in router.loads)

    def test_cap_spreads_a_skewed_stream(self):
        # One replica prices everything cheapest; the cap must still
        # push weight onto the others.
        costs = {f"q{i}": [1.0, 50.0, 50.0] for i in range(30)}
        router = Router(costs, 3, max_share=0.4)
        for i in range(30):
            router.route_template(f"q{i}")
        shares = router.shares()
        assert shares[0] <= 0.4 + router._grain / router.total_weight + 1e-9
        # Overflow spills to the tied replicas deterministically: 1
        # first (lowest id), then 2 once 1 hits the cap too.
        assert shares[1] > 0.0 and shares[2] > 0.0

    def test_unknown_statement_falls_back_least_loaded(self):
        router = Router({"q": [1.0, 2.0]}, 2)
        assert router.route("SELECT zz FROM unseen_table") == 0
        assert router.unknown_routed == 1
        # Known statements match by canonical fingerprint.
        fingerprints = {}
        sql = "SELECT ra FROM photoobj WHERE ra < 1.5"
        fingerprints[canonicalize(sql)] = "q"
        router = Router(
            {"q": [4.0, 2.0]}, 2, fingerprints=fingerprints
        )
        # A literal variation of the template routes by its cost row.
        assert router.route("SELECT ra FROM photoobj WHERE ra < 99.9") == 1
        assert router.unknown_routed == 0

    def test_validation(self):
        with pytest.raises(ReproError):
            Router({}, 0)
        with pytest.raises(ReproError):
            Router({}, 2, max_share=0.0)
        with pytest.raises(ReproError):
            Router({}, 2, max_share=1.5)
        with pytest.raises(ReproError):
            Router({}, 4, max_share=0.2)  # 0.2 * 4 < 1: infeasible
        with pytest.raises(ReproError):
            Router({"q": [1.0]}, 2)  # short cost row
        router = Router({"q": [1.0, 2.0]}, 2)
        with pytest.raises(ReproError):
            router.route_template("q", weight=0.0)

    def test_reset_clears_loads_only(self):
        router = Router({"q": [1.0, 2.0]}, 2)
        router.route_template("q", weight=3.0)
        router.reset()
        assert router.loads == (0.0, 0.0)
        assert router.routed == 0
        assert router.costs_for("q") == (1.0, 2.0)


# ----------------------------------------------------------------------
# DivergentTuner


class TestDivergentTuner:
    def test_converges_and_beats_uniform(self, sdss_db, sdss_wl, fleet_result):
        result = fleet_result
        assert result.converged
        assert 1 <= len(result.rounds) <= 8
        assert result.rounds[-1].reassigned == 0
        # Every surviving template is assigned to a real replica.
        assert set(result.assignment.values()) <= {0, 1, 2}
        assert len(result.assignment) == len(list(sdss_wl))
        # Divergence must pay at this budget.
        tuner = DivergentTuner(
            sdss_db.catalog, n_replicas=3, budget_pages=BUDGET_PAGES, seed=0
        )
        baseline = tuner.uniform_baseline(sdss_wl)
        assert result.total_cost < baseline.total_cost

    def test_round_totals_never_increase_at_fixed_point(self, fleet_result):
        # The last round is the fixed point: its total equals the
        # result total and no design changed relative to routing.
        assert fleet_result.total_cost == fleet_result.rounds[-1].total_cost

    def test_deterministic_for_fixed_seed(self, sdss_db, sdss_wl, fleet_result):
        again = DivergentTuner(
            sdss_db.catalog, n_replicas=3, budget_pages=BUDGET_PAGES, seed=0
        ).tune(sdss_wl)
        assert [r.design_signatures for r in again.replicas] == [
            r.design_signatures for r in fleet_result.replicas
        ]
        assert again.assignment == fleet_result.assignment
        assert again.total_cost == fleet_result.total_cost

    def test_designs_respect_budget(self, fleet_result):
        for replica in fleet_result.replicas:
            if replica.design:
                assert replica.result is not None
                assert replica.result.size_pages <= BUDGET_PAGES

    def test_router_routes_workload_sql(self, sdss_wl, fleet_result):
        # The result router prices real statements of every template.
        for query in sdss_wl:
            chosen = fleet_result.router.route(query.sql, query.weight)
            assert 0 <= chosen < 3
        assert fleet_result.router.unknown_routed == 0

    def test_monitor_input_uses_utilization_profile(self, sdss_db, sdss_wl):
        monitor = WorkloadMonitor(window_size=256)
        for query in sdss_wl:
            for _ in range(max(1, int(query.weight))):
                monitor.observe(query.sql)
        monitor.observe("INSERT INTO photoobj VALUES (1, 2, 3)")
        result = DivergentTuner(
            sdss_db.catalog, n_replicas=2, budget_pages=BUDGET_PAGES, seed=0
        ).tune(monitor)
        assert result.converged
        # Weights came from the normalized profile, so the routed total
        # is a weighted mean over shares (small), not raw counts.
        assert len(result.assignment) > 0
        assert result.total_cost > 0

    def test_empty_monitor_rejected(self, sdss_db):
        monitor = WorkloadMonitor()
        with pytest.raises(ReproError):
            DivergentTuner(
                sdss_db.catalog, n_replicas=2, budget_pages=10
            ).tune(monitor)

    def test_single_replica_degenerates_to_uniform(self, sdss_db, sdss_wl):
        tuner = DivergentTuner(
            sdss_db.catalog, n_replicas=1, budget_pages=BUDGET_PAGES, seed=0
        )
        result = tuner.tune(sdss_wl)
        baseline = tuner.uniform_baseline(sdss_wl)
        assert result.converged
        assert set(result.assignment.values()) == {0}
        assert result.total_cost == pytest.approx(baseline.total_cost)

    def test_validation(self, sdss_db):
        with pytest.raises(ReproError):
            DivergentTuner(sdss_db.catalog, n_replicas=0, budget_pages=10)
        with pytest.raises(ReproError):
            DivergentTuner(sdss_db.catalog, n_replicas=2, budget_pages=0)
        with pytest.raises(ReproError):
            DivergentTuner(
                sdss_db.catalog, n_replicas=2, budget_pages=10, max_rounds=0
            )

    def test_controller_rejects_bad_tuning_knobs_at_construction(self, sdss_db):
        # The controller builds its tuner up front: a bad knob fails
        # here, not at the first re-tune in the middle of a stream.
        with pytest.raises(ReproError, match="max_rounds"):
            FleetController([sdss_db], budget_pages=10, max_rounds=0)


class TestOneAdvisingContext:
    def test_cluster_results_equal_a_cold_advise(
        self, sdss_db, sdss_wl, fleet_result
    ):
        catalog = sdss_db.catalog
        pool = generate_candidates(
            catalog, sdss_wl, bound=bind_workload(catalog, sdss_wl)
        )
        assert fleet_result.converged
        assert fleet_result.candidates_considered == len(pool)
        rates = dict(sdss_wl.update_rates)
        advised = 0
        for replica in fleet_result.replicas:
            # Converged: the last round tuned exactly the final clusters.
            cluster = [
                query for query in sdss_wl
                if fleet_result.assignment[query.name] == replica.replica_id
            ]
            if not cluster:
                assert replica.result is None
                continue
            cold = IlpIndexAdvisor(
                catalog.clone(), cost_cache=CostCache()
            ).recommend(
                Workload(queries=cluster, name="cold", update_rates=rates),
                BUDGET_PAGES,
                update_rates=rates or None,
                candidates=pool,
            )
            assert replica.result.indexes == cold.indexes
            assert replica.result.cost_after == cold.cost_after
            assert replica.result.per_query == cold.per_query
            advised += 1
        assert advised >= 2

    def test_each_template_is_modelled_once_per_tune(
        self, sdss_db, sdss_wl, monkeypatch
    ):
        built = []
        model_class = engine.InumModel

        def counting(catalog, bound, *args, **kwargs):
            built.append(id(bound))
            return model_class(catalog, bound, *args, **kwargs)

        monkeypatch.setattr(engine, "InumModel", counting)
        result = DivergentTuner(
            sdss_db.catalog, n_replicas=3, budget_pages=BUDGET_PAGES, seed=0
        ).tune(sdss_wl)
        assert len(result.rounds) >= 2  # every round re-advises every cluster
        assert len(built) == len(set(built)) == len(result.assignment)


# ----------------------------------------------------------------------
# Fault injection (satellite: no fleet-wide aborts)


class TestFleetFaults:
    def test_failed_cluster_advise_keeps_previous_design(
        self, sdss_db, sdss_wl, fleet_result, monkeypatch
    ):
        # Replica 1's advise works in round 1 and raises from round 2 on.
        recommend = IlpIndexAdvisor.recommend
        calls = []

        def flaky(self, workload, *args, **kwargs):
            if workload.name.endswith("/replica1"):
                calls.append(workload.name)
                if len(calls) >= 2:
                    raise AdvisorError("replica 1 advise broke")
            return recommend(self, workload, *args, **kwargs)

        def tuner():
            return DivergentTuner(
                sdss_db.catalog, n_replicas=3, budget_pages=BUDGET_PAGES, seed=0
            )

        first_round = tuner().tune(sdss_wl, max_rounds=1)
        monkeypatch.setattr(IlpIndexAdvisor, "recommend", flaky)
        result = tuner().tune(sdss_wl)
        # The round completed around the failure, and the fleet reached
        # the same fixed point on the replicas that still advise.
        assert result.converged
        assert len(result.rounds) == len(fleet_result.rounds) == 2
        assert len(calls) == 2
        assert (
            result.replicas[1].design_signatures
            == first_round.replicas[1].design_signatures
        )
        assert result.replicas[1].design
        for r in (0, 2):
            assert (
                result.replicas[r].design_signatures
                == fleet_result.replicas[r].design_signatures
            )
        assert [
            (d.point, d.subject, d.action) for d in result.degraded
        ] == [("fleet.advise", "replica 1", "fallback")]
        assert "replica 1 advise broke" in result.degraded[0].detail

    def test_inum_faults_quarantine_within_clusters(self, sdss_db, sdss_wl):
        # Periodic model-build crashes: queries are quarantined (in the
        # fleet embedding and inside cluster advises), never an abort.
        tuner = DivergentTuner(
            sdss_db.catalog, n_replicas=3, budget_pages=BUDGET_PAGES, seed=0
        )
        with faults.injecting(FaultInjector.from_spec("inum.build:%9")):
            result = tuner.tune(sdss_wl)
        assert result.converged
        assert any(
            record.action == "quarantined" for record in result.degraded
        )
        # Quarantined templates drop out of the assignment; the rest
        # still route.
        assert len(result.assignment) < len(list(sdss_wl))
        assert len(result.assignment) > 0


# ----------------------------------------------------------------------
# Facade + CLI


class TestFacadeAndCli:
    def test_parinda_fleet_facade(self, sdss_db, sdss_wl):
        parinda = Parinda(sdss_db, cache_max_entries=512)
        fleet = parinda.fleet(n_replicas=2, budget_pages=BUDGET_PAGES)
        result = fleet.tune(sdss_wl)
        assert result.n_replicas == 2
        assert result.converged
        assert result.router.route(sdss_wl.queries[0].sql) in (0, 1)

    def test_parinda_fleet_needs_budget(self, sdss_db):
        with pytest.raises(ValueError):
            Parinda(sdss_db).fleet(n_replicas=2)

    def test_cli_fleet_smoke(self, capsys):
        code = cli_main(
            [
                "--db", "sdss:1500",
                "fleet",
                "--replicas", "2",
                "--rounds", "4",
                "--budget-mb", "0.4",
                "--baseline",
                "-v",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fleet of 2 replicas" in out
        assert "round 1: total fleet cost" in out
        assert "Replica 0:" in out and "Replica 1:" in out
        assert "CREATE INDEX ON" in out
        assert "Uniform-design baseline:" in out


class TestRouterDegeneratePricing:
    """Satellite: all-zero, non-finite, and empty cost tables."""

    def test_non_finite_costs_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ReproError):
                Router({"q": [1.0, bad]}, 2)

    def test_negative_costs_rejected(self):
        with pytest.raises(ReproError):
            Router({"q": [1.0, -0.5]}, 2)

    def test_all_zero_row_routes_round_robin(self):
        # Zero everywhere = no pricing signal; min-by-cost would pin
        # every statement on replica 0. The router must level the fleet
        # instead: with uniform weights that is a clean round-robin.
        router = Router({"z": [0.0, 0.0, 0.0]}, 3)
        routes = [router.route_template("z") for _ in range(9)]
        assert routes == [0, 1, 2, 0, 1, 2, 0, 1, 2]
        assert router.unpriced_routed == 9
        assert router.unknown_routed == 0
        assert router.costs_for("z") is None

    def test_all_zero_row_via_statement_path(self):
        sql = "SELECT ra FROM photoobj WHERE ra < 1.5"
        fingerprints = {canonicalize(sql): "z"}
        router = Router(
            {"z": [0.0, 0.0]}, 2, fingerprints=fingerprints
        )
        assert router.route("SELECT ra FROM photoobj WHERE ra < 2.5") == 0
        assert router.route("SELECT ra FROM photoobj WHERE ra < 3.5") == 1
        assert router.unpriced_routed == 2
        assert router.unknown_routed == 0

    def test_mixed_zero_and_priced_rows(self):
        router = Router({"z": [0.0, 0.0], "q": [9.0, 1.0]}, 2)
        assert router.route_template("q") == 1  # priced normally
        assert router.route_template("z") == 0  # balanced, not pinned
        assert router.unpriced_routed == 1

    def test_empty_cost_table_is_legal(self):
        router = Router({}, 3)
        routes = [router.route_template(f"t{i}") for i in range(6)]
        assert routes == [0, 1, 2, 0, 1, 2]
        assert router.unknown_routed == 6
        assert router.unpriced_routed == 0

    def test_reset_clears_unpriced_counter(self):
        router = Router({"z": [0.0, 0.0]}, 2)
        router.route_template("z")
        assert router.unpriced_routed == 1
        router.reset()
        assert router.unpriced_routed == 0
        assert router.routed == 0

    def test_zero_weight_statement_still_rejected(self):
        router = Router({"z": [0.0, 0.0]}, 2)
        with pytest.raises(ReproError):
            router.route_template("z", weight=0.0)
