"""Interactive designer tests (demo scenario 1)."""

import pytest

from repro.core.interactive import InteractiveDesigner
from repro.errors import WhatIfError
from repro.optimizer.planner import Planner
from repro.sql.binder import bind
from repro.sql.parser import parse_select
from repro.workloads.sdss import build_sdss_database, sdss_workload
from repro.workloads.workload import Query, Workload

from tests.conftest import make_people_db


WL = Workload(
    name="interactive",
    queries=[
        Query("point", "select age from people where person_id = 99"),
        Query("range", "select person_id from people where age between 20 and 21"),
        Query("scan", "select count(*) from people"),
    ],
)


@pytest.fixture()
def db():
    return make_people_db(rows=3000, seed=47)


@pytest.fixture()
def designer(db):
    return InteractiveDesigner(db)


class TestEvaluate:
    def test_no_design_is_neutral(self, designer):
        evaluation = designer.evaluate(WL)
        assert evaluation.cost_after == pytest.approx(evaluation.cost_before)
        assert evaluation.average_benefit == pytest.approx(0.0)

    def test_index_design_benefits(self, designer):
        designer.add_whatif_index("people", ("person_id",))
        designer.add_whatif_index("people", ("age",))
        evaluation = designer.evaluate(WL)
        assert evaluation.cost_after < evaluation.cost_before
        assert 0 < evaluation.average_benefit <= 1
        point = next(q for q in evaluation.per_query if q.name == "point")
        assert point.speedup > 2
        assert point.indexes_used
        scan = next(q for q in evaluation.per_query if q.name == "scan")
        assert scan.cost_after == pytest.approx(scan.cost_before)

    def test_partition_design_rewrites_queries(self, designer, db):
        other_cols = tuple(
            c for c in db.catalog.table("people").column_names
            if c not in ("person_id", "age")
        )
        designer.add_whatif_partitions("people", [("age",), other_cols])
        evaluation = designer.evaluate(WL)
        assert "people__frag" in evaluation.rewritten_sql["range"]

    def test_partitions_must_cover_table(self, designer):
        with pytest.raises(WhatIfError, match="uncovered"):
            designer.add_whatif_partitions("people", [("age",)])

    def test_duplicate_partitioning_rejected(self, designer, db):
        every = [tuple(db.catalog.table("people").column_names)]
        designer.add_whatif_partitions("people", every)
        with pytest.raises(WhatIfError):
            designer.add_whatif_partitions("people", every)

    def test_reset(self, designer):
        designer.add_whatif_index("people", ("age",))
        designer.reset()
        assert designer.session.hypothetical_indexes == []


class TestScriptedSession:
    """A replan inside a session reuses the query's prepared planner
    state and the designer keeps base-side bindings across reset();
    neither may move a cost. After every step of an add / drop / flag /
    partition / reset script over single- and multi-table queries, each
    displayed cost equals a fresh ``Planner.plan`` of the freshly
    parsed and bound statement under the session's design."""

    def test_every_step_equals_fresh_planning(self, monkeypatch):
        db = build_sdss_database(photo_rows=1500, seed=3)
        survey = sdss_workload()
        workload = Workload(
            name="session",
            queries=[
                survey.query(name)
                for name in (
                    "q01_box_search", "q08_brightest", "q15_spec_redshift_join",
                    "q17_qso_spectra", "q24_merger_candidates",
                    "q27_field_seeing_join", "q29_spec_field_quality",
                )
            ],
        )
        calls = {"prepare": 0, "bind": 0}

        def counted(owner, attr, key):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        counted(Planner, "prepare", "prepare")
        counted(Query, "bind", "bind")
        designer = InteractiveDesigner(db)

        def check():
            session = designer.session
            prepares, misses = calls["prepare"], session.plan_cache_misses
            evaluation = designer.evaluate(workload)
            prepared_here = calls["prepare"] - prepares
            assert session.plan_cache_misses > misses  # every step replans
            for query, shown in zip(workload, evaluation.per_query):
                statement = parse_select(evaluation.rewritten_sql[query.name])
                fresh = Planner(session.catalog, session.config).plan(
                    bind(session.catalog, statement)
                )
                assert shown.cost_after == fresh.total_cost * query.weight, query.name
            return prepared_here

        assert check() == 2 * len(workload)  # baseline + target, once each
        specobj = db.catalog.table("specobj")
        cut = len(specobj.column_names) // 2
        script = [
            lambda: designer.add_whatif_index("photoobj", ("ra",), name="w_ra"),
            lambda: designer.add_whatif_index("specobj", ("z",), name="w_z"),
            lambda: designer.session.set_join_flags(enable_hashjoin=False),
            lambda: designer.session.set_join_flags(enable_hashjoin=True),
            lambda: designer.session.drop_index("w_ra"),
            lambda: designer.add_whatif_partitions(
                "specobj", [specobj.column_names[:cut], specobj.column_names[cut:]]
            ),
            lambda: designer.add_whatif_index("photoobj", ("dec",), name="w_dec"),
            lambda: designer.session.set_join_flags(enable_nestloop=False),
            lambda: designer.reset(),
            lambda: designer.add_whatif_index("photoobj", ("run",), name="w_run"),
        ]
        fresh_catalog = {5, 8}  # partition and reset: new tables, new bindings
        for position, step in enumerate(script):
            step()
            prepared_here = check()
            if position in fresh_catalog:
                assert prepared_here == len(workload)
            else:  # indexes and flags replan from the kept state
                assert prepared_here == 0
        assert calls["bind"] == len(workload)  # base side: once, reset or not


class TestCompareWithMaterialized:
    def test_plans_and_costs_match(self, designer):
        designer.add_whatif_index("people", ("person_id",))
        comparison = designer.compare_with_materialized("point", WL)
        assert comparison.plans_match
        assert comparison.cost_error < 1e-9
        assert "Index Scan" in comparison.whatif_plan
        assert "Index Scan" in comparison.materialized_plan

    def test_comparison_leaves_database_unchanged(self, designer, db):
        designer.add_whatif_index("people", ("person_id",))
        designer.compare_with_materialized("point", WL)
        assert db.catalog.indexes_on("people") == []
        assert not db.has_relation("people__frag0")

    def test_partition_comparison(self, designer, db):
        other_cols = tuple(
            c for c in db.catalog.table("people").column_names
            if c not in ("person_id", "age")
        )
        designer.add_whatif_partitions("people", [("age",), other_cols])
        comparison = designer.compare_with_materialized("scan", WL)
        assert comparison.cost_error < 1e-9
