"""Greedy baseline tests and its dominance relation with ILP."""

import pytest

from repro.advisor.candidates import generate_candidates
from repro.advisor.ilp_advisor import IlpIndexAdvisor
from repro.baselines.greedy import GreedyIndexAdvisor
from repro.errors import AdvisorError
from repro.inum.model import InumModel
from repro.workloads.sdss import build_sdss_database, sdss_workload
from repro.workloads.workload import Query, Workload

from tests.conftest import make_people_db
from tests.reference import inum_estimate


@pytest.fixture(scope="module")
def db():
    return make_people_db(rows=3000, seed=31)


WL = Workload(
    name="greedy-test",
    queries=[
        Query("point", "select age from people where person_id = 44"),
        Query("range", "select person_id from people where age between 20 and 22"),
        Query("join", "select p.age, q.weight from people p, pets q "
                      "where p.person_id = q.owner_id and q.weight > 39"),
    ],
)


class TestGreedy:
    def test_improves_workload(self, db):
        result = GreedyIndexAdvisor(db.catalog).recommend(WL, budget_pages=200)
        assert result.cost_after < result.cost_before
        assert result.solver_status == "greedy"

    def test_budget_respected(self, db):
        for budget in (5, 25, 120):
            result = GreedyIndexAdvisor(db.catalog).recommend(WL, budget_pages=budget)
            assert result.size_pages <= budget

    def test_stops_when_no_benefit(self, db):
        useless = Workload(
            queries=[Query("all", "select count(*) from people")], name="u"
        )
        result = GreedyIndexAdvisor(db.catalog).recommend(useless, budget_pages=1000)
        assert result.indexes == []
        assert result.cost_after == pytest.approx(result.cost_before)

    def test_invalid_budget(self, db):
        with pytest.raises(AdvisorError):
            GreedyIndexAdvisor(db.catalog).recommend(WL, budget_pages=-5)

    def test_per_page_variant_runs(self, db):
        result = GreedyIndexAdvisor(db.catalog, per_page=True).recommend(
            WL, budget_pages=100
        )
        assert result.size_pages <= 100

    def test_single_column_mode(self, db):
        result = GreedyIndexAdvisor(db.catalog, single_column_only=True).recommend(
            WL, budget_pages=500
        )
        assert all(len(ix.columns) == 1 for ix in result.indexes)


def oracle_greedy(workload, models, candidates, budget_pages, per_page):
    """The per-candidate greedy loop over the scalar reference
    estimator: what the advisor's array-priced scan must reproduce."""

    def workload_cost(chosen):
        config = tuple(c.index for c in chosen)
        return sum(inum_estimate(models[q.name], config) * q.weight for q in workload)

    chosen, remaining, used_pages = [], list(candidates), 0
    current_cost = workload_cost(chosen)
    while True:
        best, best_score, best_cost = None, 0.0, current_cost
        for candidate in remaining:
            if used_pages + candidate.size_pages > budget_pages:
                continue
            trial_cost = workload_cost(chosen + [candidate])
            saving = current_cost - trial_cost
            if saving <= 1e-6:
                continue
            score = saving / candidate.size_pages if per_page else saving
            if score > best_score:
                best, best_score, best_cost = candidate, score, trial_cost
        if best is None:
            return chosen, current_cost
        chosen.append(best)
        remaining.remove(best)
        used_pages += best.size_pages
        current_cost = best_cost


@pytest.fixture(scope="module")
def sdss():
    catalog = build_sdss_database(photo_rows=3000, seed=11).catalog
    workload = sdss_workload().subset(8)
    candidates = generate_candidates(catalog, workload)
    models = {q.name: InumModel(catalog, q.bind(catalog)) for q in workload}
    return catalog, workload, candidates, models


@pytest.mark.parametrize("per_page", [False, True])
def test_matches_scalar_oracle(sdss, per_page):
    catalog, workload, candidates, models = sdss
    chosen, cost = oracle_greedy(workload, models, candidates, 500, per_page)
    result = GreedyIndexAdvisor(catalog, per_page=per_page).recommend(
        workload, budget_pages=500
    )
    assert chosen  # the comparison below is not about two empty designs
    assert [(ix.table_name, ix.columns) for ix in result.indexes] == [
        (c.index.table_name, c.index.columns) for c in chosen
    ]
    assert result.cost_after == cost  # exact: same floats, same order


class TestIlpDominance:
    @pytest.mark.parametrize("budget", [15, 40, 150, 600])
    def test_ilp_at_least_as_good(self, db, budget):
        """The paper: ILP outperforms greedy. At minimum it never loses
        (both priced with the same INUM models)."""
        ilp = IlpIndexAdvisor(db.catalog).recommend(WL, budget_pages=budget)
        greedy = GreedyIndexAdvisor(db.catalog).recommend(WL, budget_pages=budget)
        assert ilp.cost_after <= greedy.cost_after * 1.001
