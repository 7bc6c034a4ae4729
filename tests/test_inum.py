"""INUM tests: exactness, monotonicity, and reuse accounting."""

import itertools
import random

import pytest

from repro.catalog.schema import Index
from repro.inum.batch import WorkloadEvaluator
from repro.inum.model import InumModel
from repro.sql.binder import bind
from repro.sql.parser import parse_select

from tests.conftest import make_people_db


@pytest.fixture(scope="module")
def db():
    return make_people_db(rows=3000, seed=17)


def model_for(db, sql, **kwargs) -> InumModel:
    return InumModel(db.catalog, bind(db.catalog, parse_select(sql)), **kwargs)


CANDIDATES = [
    Index("c_age", "people", ("age",), hypothetical=True),
    Index("c_pid", "people", ("person_id",), hypothetical=True),
    Index("c_city_age", "people", ("city", "age"), hypothetical=True),
    Index("c_owner", "pets", ("owner_id",), hypothetical=True),
    Index("c_weight", "pets", ("weight",), hypothetical=True),
    Index("c_owner_weight", "pets", ("owner_id", "weight"), hypothetical=True),
]


class TestExactness:
    """INUM's estimate must track the optimizer's answer closely."""

    SQLS = [
        "select person_id from people where age between 30 and 32",
        "select count(*) from people where city = 'oslo' and age > 50",
        "select p.age, q.weight from people p, pets q "
        "where p.person_id = q.owner_id and q.weight > 39",
        "select city, count(*) from people where age < 20 group by city",
    ]

    @pytest.mark.parametrize("sql", SQLS)
    def test_against_optimizer_over_all_configs(self, db, sql):
        model = model_for(db, sql)
        for k in (0, 1, 2):
            for config in itertools.combinations(CANDIDATES, k):
                estimate = model.estimate(config)
                truth = model.optimizer_cost(config)
                assert estimate == pytest.approx(truth, rel=0.05), (
                    f"{sql!r} with {[c.name for c in config]}"
                )

    def test_empty_config_equals_base(self, db):
        model = model_for(db, self.SQLS[0])
        assert model.estimate(()) == pytest.approx(model.base_cost)
        assert model.base_cost == pytest.approx(model.optimizer_cost(()))


class TestMonotonicity:
    def test_adding_indexes_never_hurts(self, db):
        model = model_for(
            db,
            "select p.age from people p, pets q "
            "where p.person_id = q.owner_id and p.age < 10",
        )
        rng = random.Random(3)
        for _ in range(20):
            config = rng.sample(CANDIDATES, rng.randint(0, 3))
            extra = rng.choice([c for c in CANDIDATES if c not in config])
            base = model.estimate(config)
            more = model.estimate(config + [extra])
            assert more <= base + 1e-9

    def test_irrelevant_index_is_neutral(self, db):
        model = model_for(db, "select count(*) from pets where weight > 39")
        unrelated = Index("c_x", "people", ("height",), hypothetical=True)
        assert model.estimate((unrelated,)) == pytest.approx(model.base_cost)


class TestReuse:
    def test_estimates_do_not_call_optimizer(self, db):
        model = model_for(
            db,
            "select p.age from people p, pets q where p.person_id = q.owner_id",
        )
        calls_after_build = model.stats.optimizer_calls
        for config in itertools.combinations(CANDIDATES, 2):
            model.estimate(config)
        assert model.stats.optimizer_calls == calls_after_build
        assert model.stats.estimates_served >= 15

    def test_cache_entries_cover_nl_toggle(self, db):
        model = model_for(
            db,
            "select p.age from people p, pets q where p.person_id = q.owner_id",
        )
        flags = {entry.nestloop_enabled for entry in model.entries}
        assert flags == {True, False}

    def test_combination_cap_respected(self, db):
        model = model_for(
            db,
            "select p.age from people p, pets q where p.person_id = q.owner_id",
            max_combinations=2,
        )
        assert model.stats.optimizer_calls <= 4  # 2 combos x 2 nl flags


class TestDetail:
    def test_detail_names_chosen_index(self, db):
        model = model_for(
            db, "select age from people where person_id = 7"
        )
        evaluator = WorkloadEvaluator([model], [1.0], [CANDIDATES[1]])
        costs, (detail,) = evaluator.serving_indexes([0])
        assert costs[0] < model.base_cost
        assert detail.get("people") == "c_pid"

    def test_detail_none_for_seqscan(self, db):
        model = model_for(db, "select count(*) from people")
        evaluator = WorkloadEvaluator([model], [1.0], [])
        _costs, (detail,) = evaluator.serving_indexes([])
        assert detail == {"people": None}
