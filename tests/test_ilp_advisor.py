"""ILP index advisor tests: constraints, optimality, reporting."""

import itertools

import pytest

from repro.advisor import ilp_advisor
from repro.advisor.candidates import generate_candidates
from repro.advisor.compress import compress_statements
from repro.advisor.ilp_advisor import IlpIndexAdvisor
from repro.errors import AdvisorError
from repro.ilp.branch_bound import BranchAndBoundSolver
from repro.inum.batch import WorkloadEvaluator
from repro.inum.model import InumModel
from repro.parallel.caches import CostCache
from repro.workloads.sdss import build_sdss_database, sdss_workload
from repro.workloads.workload import Query, Workload

from tests import test_compress
from tests.conftest import make_people_db
from tests.reference import HighsSolver, highs_solve


@pytest.fixture(scope="module")
def db():
    return make_people_db(rows=3000, seed=29)


@pytest.fixture(scope="module")
def sdss_db():
    return build_sdss_database(photo_rows=2000, seed=42)


WL = Workload(
    name="advisor-test",
    queries=[
        Query("point", "select age from people where person_id = 44"),
        Query("range", "select person_id from people where age between 20 and 22"),
        Query("join", "select p.age, q.weight from people p, pets q "
                      "where p.person_id = q.owner_id and q.weight > 39"),
        Query("groupy", "select city, count(*) from people where height > 190 "
                        "group by city"),
    ],
)


class TestRecommendation:
    def test_improves_workload(self, db):
        result = IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=200)
        assert result.cost_after < result.cost_before
        assert result.speedup > 1.0
        assert result.solver_status in ("optimal", "feasible", "no-benefit")

    def test_budget_respected(self, db):
        for budget in (5, 20, 100):
            result = IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=budget)
            assert result.size_pages <= budget

    def test_more_budget_never_worse(self, db):
        tight = IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=10)
        loose = IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=500)
        assert loose.benefit >= tight.benefit - 1e-9

    def test_invalid_budget(self, db):
        with pytest.raises(AdvisorError):
            IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=0)

    def test_indexes_are_hypothetical_until_created(self, db):
        result = IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=200)
        assert all(ix.hypothetical for ix in result.indexes)

    def test_per_query_accounting_consistent(self, db):
        result = IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=200)
        assert len(result.per_query) == len(WL)
        total_before = sum(q.cost_before for q in result.per_query)
        total_after = sum(q.cost_after for q in result.per_query)
        assert total_before == pytest.approx(result.cost_before)
        assert total_after == pytest.approx(result.cost_after)
        for entry in result.per_query:
            assert entry.cost_after <= entry.cost_before + 1e-9

    def test_used_indexes_are_recommended(self, db):
        result = IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=200)
        names = {ix.name for ix in result.indexes}
        for entry in result.per_query:
            assert set(entry.indexes_used) <= names

    def test_scipy_backend_agrees(self, db, monkeypatch):
        builtin = IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=150)
        monkeypatch.setattr(ilp_advisor, "BranchAndBoundSolver", HighsSolver)
        scipy_res = IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=150)
        assert builtin.cost_after == pytest.approx(scipy_res.cost_after, rel=1e-6)

    def test_weights_shift_the_choice(self, db):
        heavy_range = Workload(
            name="w",
            queries=[
                Query("point", WL.query("point").sql, weight=1.0),
                Query("range", WL.query("range").sql, weight=50.0),
            ],
        )
        result = IlpIndexAdvisor(db.catalog).recommend(heavy_range, budget_pages=15)
        assert any("age" in ix.columns for ix in result.indexes)


class TestOptimalityOnTinyInstance:
    def test_matches_exhaustive_search(self, db):
        """On a small candidate set, the ILP answer must equal brute force
        over all configurations under the same INUM pricing."""
        workload = Workload(
            name="tiny",
            queries=[WL.query("point"), WL.query("range")],
        )
        budget = 30
        candidates = generate_candidates(db.catalog, workload)[:6]
        models = {
            q.name: InumModel(db.catalog, q.bind(db.catalog)) for q in workload
        }

        def cost_of(config):
            return sum(
                models[q.name].estimate([c.index for c in config]) for q in workload
            )

        best = cost_of(())
        for r in range(1, len(candidates) + 1):
            for combo in itertools.combinations(candidates, r):
                if sum(c.size_pages for c in combo) <= budget:
                    best = min(best, cost_of(combo))

        advisor = IlpIndexAdvisor(db.catalog, max_candidates_per_table=6)
        result = advisor.recommend(workload, budget_pages=budget)
        assert result.cost_after == pytest.approx(best, rel=1e-6)


class TestRefinement:
    def test_refine_never_worse(self, db):
        raw = IlpIndexAdvisor(db.catalog).recommend(
            WL, budget_pages=150, refine=False
        )
        polished = IlpIndexAdvisor(db.catalog).recommend(
            WL, budget_pages=150, refine=True
        )
        assert polished.cost_after <= raw.cost_after + 1e-9
        assert polished.size_pages <= 150

    def test_refine_respects_update_cap(self, db):
        result = IlpIndexAdvisor(db.catalog).recommend(
            WL,
            budget_pages=500,
            update_rates={"people": 2.0, "pets": 2.0},
            max_update_cost=10.0,
            refine=True,
        )
        assert result.maintenance_cost <= 10.0 + 1e-9

    def test_refine_drops_redundant_indexes(self, db):
        """Two near-identical candidates chosen by the additive model
        collapse to one after full-estimate refinement (or were never
        both chosen): the final set must have no droppable index."""
        from repro.inum.model import InumModel

        result = IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=500)
        models = {
            q.name: InumModel(db.catalog, q.bind(db.catalog)) for q in WL
        }

        def workload_cost(indexes):
            return sum(
                models[q.name].estimate(indexes) * q.weight for q in WL
            )

        full = workload_cost(tuple(i for i in result.indexes))
        for dropped in result.indexes:
            reduced = tuple(i for i in result.indexes if i is not dropped)
            assert workload_cost(reduced) >= full - 1e-9, (
                f"{dropped.name} is redundant and should have been dropped"
            )

    def test_no_dead_index_on_sdss(self, sdss_db):
        """Where the ILP has several optimal vertices, the refine pass
        keeps none that carries an index nothing uses: removing any one
        recommended index raises the INUM workload cost."""
        workload = sdss_workload()
        advisor = IlpIndexAdvisor(sdss_db.catalog)
        result = advisor.recommend(workload, budget_pages=500)
        # The same cost the tie-blind design reached with 25 indexes,
        # 9 of which it could drop for nothing.
        assert result.cost_after == 1257.6538527823536
        assert len(result.indexes) == 16
        models = advisor.build_models(workload)
        evaluator = WorkloadEvaluator(
            [models[q.name] for q in workload],
            [q.weight for q in workload],
            result.indexes,
        )
        chosen = range(len(result.indexes))
        full = evaluator.workload_cost(chosen)
        for dropped in chosen:
            reduced = [p for p in chosen if p != dropped]
            assert evaluator.workload_cost(reduced) > full, (
                f"{result.indexes[dropped].name} serves no query"
            )


class TestBuiltinMatchesHighs:
    """Every program ``IlpIndexAdvisor._solve`` builds, solved again by
    HiGHS: the same status, and the same objective to the solver's gap
    tolerance, or to ``bound_epsilon`` of it where scale mode fathoms
    by that slack."""

    @pytest.fixture()
    def solved(self, monkeypatch):
        """(program, bound_epsilon, built-in solution) per solve."""
        captured = []

        class Recording(BranchAndBoundSolver):
            def __init__(self, **options):
                super().__init__(**options)
                self.epsilon = options.get("bound_epsilon", 0.0)

            def solve(self, program):
                solution = super().solve(program)
                captured.append((program, self.epsilon, solution))
                return solution

        monkeypatch.setattr(ilp_advisor, "BranchAndBoundSolver", Recording)
        return captured

    @staticmethod
    def assert_agree(solved, count):
        assert len(solved) == count
        for program, epsilon, ours in solved:
            theirs = highs_solve(program)
            assert ours.status == theirs.status == "optimal"
            slack = max(1e-6, epsilon * abs(theirs.objective))
            assert abs(ours.objective - theirs.objective) <= slack

    def test_sdss_queries_per_pair_coupling(self, sdss_db, solved):
        IlpIndexAdvisor(sdss_db.catalog).recommend(sdss_workload(), 500)
        self.assert_agree(solved, 1)

    def test_folded_stream_in_scale_mode(self, sdss_db, solved):
        folded = compress_statements(
            test_compress.TestSolverDifferential.sdss_stream(cycles=4)
        )
        result = IlpIndexAdvisor(sdss_db.catalog, compress=True).recommend(
            folded.workload, 120, update_rates=folded.workload.update_rates
        )
        assert result.solver_nodes > 1
        assert solved[0][1] == 1e-4
        self.assert_agree(solved, 1)

    def test_update_rate_sweep_with_a_cap(self, sdss_db, solved):
        cache = CostCache()
        for rate in (0.0, 1.0, 5.0, 25.0, 125.0, 625.0):
            IlpIndexAdvisor(sdss_db.catalog, cost_cache=cache).recommend(
                sdss_workload(), 600,
                update_rates={"photoobj": rate}, max_update_cost=40.0,
            )
        self.assert_agree(solved, 6)
