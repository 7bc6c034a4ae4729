"""Facade tests: the three scenarios end-to-end on the star schema."""

import pytest

from repro.core.parinda import Parinda
from repro.errors import AdvisorError
from repro.workloads.star import build_star_database, star_workload


@pytest.fixture()
def parinda():
    return Parinda(build_star_database(fact_rows=4000, seed=7))


@pytest.fixture(scope="module")
def workload():
    return star_workload()


class TestScenario1Interactive:
    def test_designer_session(self, parinda, workload):
        designer = parinda.interactive()
        designer.add_whatif_index("sales", ("sold_on",))
        evaluation = designer.evaluate(workload)
        assert evaluation.cost_after < evaluation.cost_before


class TestScenario2Partitions:
    def test_suggest_and_create(self, parinda, workload):
        result = parinda.suggest_partitions(workload, replication_limit=0.3)
        assert result.cost_after <= result.cost_before
        created = parinda.create_partitions(result)
        for name in created:
            assert parinda.database.has_relation(name)


class TestScenario3Indexes:
    def test_suggest_with_byte_budget(self, parinda, workload):
        result = parinda.suggest_indexes(workload, budget_bytes=4 << 20)
        assert result.budget_pages == (4 << 20) // 8192
        assert result.cost_after <= result.cost_before

    def test_budget_required(self, parinda, workload):
        with pytest.raises(ValueError):
            parinda.suggest_indexes(workload)

    @pytest.mark.parametrize("budget_bytes", [0, -4096])
    def test_non_positive_byte_budget_rejected_not_clamped(
        self, parinda, workload, budget_bytes
    ):
        for call in (
            lambda: parinda.suggest_indexes(workload, budget_bytes=budget_bytes),
            lambda: parinda.online(budget_bytes=budget_bytes),
            lambda: parinda.fleet(2, budget_bytes=budget_bytes),
            lambda: parinda.fleet_serve(2, budget_bytes=budget_bytes),
        ):
            with pytest.raises(AdvisorError, match="budget must be positive"):
                call()
        # A positive sub-page budget still rounds up to one page.
        assert parinda.suggest_indexes(workload, budget_bytes=100).budget_pages == 1

    @pytest.mark.parametrize("n_replicas", [0, -1])
    def test_fleet_serve_needs_a_replica(self, parinda, n_replicas):
        # A non-positive width used to become one replica silently.
        with pytest.raises(AdvisorError, match="at least one replica"):
            parinda.fleet_serve(n_replicas, budget_pages=64)

    def test_create_indexes_materializes(self, parinda, workload):
        result = parinda.suggest_indexes(workload, budget_pages=100)
        created = parinda.create_indexes(result)
        assert len(created) == len(result.indexes)
        for name in created:
            assert parinda.database.has_btree(name)

    def test_create_indexes_twice_is_idempotent(self, parinda, workload):
        result = parinda.suggest_indexes(workload, budget_pages=100)
        first = parinda.create_indexes(result)
        version = parinda.database.catalog.version
        second = parinda.create_indexes(result)
        # Same names back, no duplicate signatures, no catalog churn.
        assert second == first
        assert parinda.database.catalog.version == version

    def test_create_indexes_skips_after_fresh_advise(self, parinda, workload):
        first = parinda.create_indexes(
            parinda.suggest_indexes(workload, budget_pages=100)
        )
        # A fresh advise hands back new cand_* names for the same
        # signatures; materialization must still dedupe against them.
        rerun = parinda.suggest_indexes(workload, budget_pages=100)
        second = parinda.create_indexes(rerun)
        assert sorted(second) == sorted(first)

    def test_create_indexes_renames_on_name_collision(self, parinda, workload):
        from repro.catalog.schema import Index, index_signature

        result = parinda.suggest_indexes(workload, budget_pages=100)
        target = result.indexes[0]
        squatter_name = f"idx_{target.table_name}_{'_'.join(target.columns)}"
        other_column = next(
            c.name
            for c in parinda.database.catalog.table(target.table_name).columns
            if c.name not in target.columns
        )
        # A materialized index squats on the deterministic name with a
        # *different* signature; the new build steps aside to _2.
        parinda.database.create_index(
            Index(squatter_name, target.table_name, (other_column,))
        )
        created = parinda.create_indexes(result)
        assert f"{squatter_name}_2" in created
        built = {
            index_signature(parinda.database.catalog.index(name))
            for name in created
        }
        assert index_signature(target) in built

    def test_created_indexes_lower_workload_cost(self, parinda, workload):
        before = parinda.workload_cost(workload)
        result = parinda.suggest_indexes(workload, budget_pages=200)
        parinda.create_indexes(result)
        after = parinda.workload_cost(workload)
        assert after < before
        # The advisor's estimate and the real optimizer agree closely.
        assert after == pytest.approx(result.cost_after, rel=0.15)

    def test_greedy_entry_point(self, parinda, workload):
        result = parinda.suggest_indexes_greedy(workload, budget_pages=100)
        assert result.solver_status == "greedy"

    def test_single_column_mode(self, parinda, workload):
        result = parinda.suggest_indexes(
            workload, budget_pages=300, single_column_only=True
        )
        assert all(len(ix.columns) == 1 for ix in result.indexes)


class TestCombinedPipeline:
    def test_combined_beats_or_ties_each_alone(self, parinda, workload):
        data_pages = sum(
            parinda.database.catalog.statistics(t).table.page_count
            for t in parinda.database.catalog.table_names
        )
        indexes_only = parinda.suggest_indexes(workload, budget_pages=data_pages)
        combined = parinda.suggest_combined(
            workload, budget_pages=data_pages, replication_limit=0.3
        )
        assert combined.cost_before == pytest.approx(indexes_only.cost_before)
        assert combined.cost_after <= indexes_only.cost_after * 1.001
        assert combined.cost_after <= combined.partitions.cost_after + 1e-9
        assert combined.speedup >= 1.0

    def test_combined_indexes_target_fragments(self, parinda, workload):
        combined = parinda.suggest_combined(
            workload, budget_pages=500, replication_limit=0.3
        )
        if combined.partitions.schemes:
            fragment_names = {
                scheme.fragment_name(i)
                for scheme in combined.partitions.schemes.values()
                for i in range(len(scheme.fragments))
            }
            assert any(
                ix.table_name in fragment_names for ix in combined.indexes.indexes
            ), "indexes should land on the fragment tables"
