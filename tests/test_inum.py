"""INUM tests: exactness, monotonicity, and reuse accounting."""

import copy
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.advisor.candidates import generate_candidates
from repro.catalog.schema import Index
from repro.core.parinda import Parinda
from repro.inum.batch import WorkloadEvaluator
from repro.inum.model import InumModel
from repro.optimizer.config import PlannerConfig
from repro.sql.binder import bind
from repro.sql.parser import parse_select
from repro.whatif.session import WhatIfSession
from repro.workloads.workload import Query, Workload
from repro.workloads.sdss import build_sdss_database, sdss_workload

from tests.conftest import make_people_db
from tests.reference import inum_reference_entries
from tests.test_joinsearch import WHATIF_INDEXES, join_queries


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

    def test_non_equi_join_keeps_both_entries(self, db):
        # No hash or merge join applies, so a nested loop survives and
        # the disabled pass plans something else.
        model = model_for(
            db,
            "select p.age from people p, pets q where p.person_id < q.owner_id",
        )
        flags = [entry.nestloop_enabled for entry in model.entries]
        assert flags == [True, False]
        assert model.stats.optimizer_calls == 2

    def test_sdss_equi_join_keeps_the_nl_on_entry_only(self, sdss):
        bound = sdss_workload().query("q15_spec_redshift_join").bind(sdss.catalog)
        model = InumModel(sdss.catalog, bound)
        assert {entry.nestloop_enabled for entry in model.entries} == {True}
        assert model.stats.optimizer_calls == len(model.entries) > 1
        assert len(inum_reference_entries(model)) == 2 * len(model.entries)

    def test_combination_cap_respected(self, db):
        model = model_for(
            db,
            "select p.age from people p, pets q where p.person_id = q.owner_id",
            max_combinations=2,
        )
        # 2 combinations, each planned again with nested loops disabled
        # only when a nested loop survived the enabled pass.
        assert model.stats.optimizer_calls <= 4


@pytest.fixture(scope="module")
def sdss():
    return build_sdss_database(photo_rows=3000, seed=42)


def _entry_key(entry):
    return (
        entry.order_vector,
        entry.nestloop_enabled,
        entry.internal_cost,
        entry.loops,
    )


def assert_matches_oracle(models, pool, seed=0, n_configs=12):
    """Each model's entries are the two-pass oracle's minus every
    nested-loops-off entry equal to its enabled twin, and the workload
    priced from either cache agrees to the last bit on random
    configurations."""
    long_way = []
    for model in models:
        oracle = inum_reference_entries(model)
        expected = []
        for entry in oracle:
            twin = expected[-1] if expected else None
            if (
                not entry.nestloop_enabled
                and twin is not None
                and twin.nestloop_enabled
                and twin.order_vector == entry.order_vector
                and (twin.internal_cost, twin.loops)
                == (entry.internal_cost, entry.loops)
            ):
                continue
            expected.append(entry)
        assert [_entry_key(e) for e in model.entries] == [
            _entry_key(e) for e in expected
        ], model.query
        twin_model = copy.copy(model)
        twin_model._entries = oracle
        long_way.append(twin_model)

    weights = [1.0] * len(models)
    fast = WorkloadEvaluator(models, weights, pool)
    slow = WorkloadEvaluator(long_way, weights, pool)
    rng = random.Random(seed)
    configs = [[]] + [
        rng.sample(range(len(pool)), rng.randint(1, min(4, len(pool))))
        for _ in range(n_configs if pool else 0)
    ]
    assert np.array_equal(fast.per_query_costs(configs), slow.per_query_costs(configs))
    for positions in configs:
        costs, serving = fast.serving_indexes(positions)
        oracle_costs, oracle_serving = slow.serving_indexes(positions)
        assert np.array_equal(costs, oracle_costs)
        assert serving == oracle_serving


class TestSkippedPassesMatchOracle:
    """The nested-loops-off pass is skipped only where it would return
    the enabled pass's plan (``JoinSearch.keeps_nestloop``)."""

    def test_sdss_queries(self, sdss):
        workload = sdss_workload()
        models = [InumModel(sdss.catalog, q.bind(sdss.catalog)) for q in workload]
        pool = [c.index for c in generate_candidates(sdss.catalog, workload)]
        assert_matches_oracle(models, pool)
        # No nested loop survives on these: one pass per combination.
        assert sum(m.stats.optimizer_calls for m in models) == sum(
            len(m.entries) for m in models
        )

    def test_e10_autopart_rewrites(self, sdss):
        # E10's pipeline (benchmarks/bench_e10_combined.py): the workload
        # rewritten onto AutoPart's fragments, as the index advisor sees it.
        workload = sdss_workload()
        partitions = Parinda(sdss).suggest_partitions(
            workload, replication_limit=0.3
        )
        session = WhatIfSession(sdss.catalog)
        for scheme in partitions.schemes.values():
            for position, fragment in enumerate(scheme.fragments):
                session.add_partition_table(
                    scheme.table_name, fragment, scheme.fragment_name(position)
                )
        rewritten = Workload(
            queries=[
                Query(name=name, sql=sql)
                for name, sql in partitions.rewritten_sql.items()
            ],
            name="e10",
        )
        models = [
            InumModel(session.catalog, q.bind(session.catalog)) for q in rewritten
        ]
        pool = [c.index for c in generate_candidates(session.catalog, rewritten)]
        assert_matches_oracle(models, pool)
        # Some fragment joins keep a nested loop, so off passes ran.
        assert sum(m.stats.optimizer_calls for m in models) > sum(
            len(m.entries) for m in models
        )

    @settings(max_examples=25, deadline=None)
    @given(case=join_queries(ops=("=", "<")))
    def test_generated_join_graphs(self, sdss, case):
        sql, _connected, indexes, off = case
        config = PlannerConfig().with_flags(**{flag: False for flag in off})
        model = InumModel(
            sdss.catalog, bind(sdss.catalog, parse_select(sql)), config=config
        )
        pool = [
            Index(f"g{i}", table, columns, hypothetical=True)
            for i, (table, columns) in enumerate(WHATIF_INDEXES)
        ]
        assert_matches_oracle([model], pool)


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
