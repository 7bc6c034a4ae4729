"""Interactive designer tests (demo scenario 1)."""

import pytest

from repro.core.interactive import InteractiveDesigner
from repro.errors import WhatIfError
from repro.optimizer.planner import Planner
from repro.optimizer.plans import IndexScan, plan_signature
from repro.sql.binder import bind
from repro.sql.parser import parse_select
from repro.whatif.session import WhatIfSession
from repro.workloads.sdss import build_sdss_database, sdss_workload
from repro.workloads.workload import Query, Workload

from tests.conftest import make_people_db
from tests.reference import serving_indexes


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


class TestQueryNameReuse:
    def test_reused_name_is_bound_to_its_own_sql(self):
        """Target bindings are keyed by SQL: a second workload that
        reuses a query name for another statement is not served the
        first statement's plan."""
        db = build_sdss_database(photo_rows=1000)
        survey = sdss_workload()
        first = Workload(name="a", queries=[Query("q", survey.queries[0].sql)])
        second = Workload(name="b", queries=[Query("q", survey.queries[5].sql)])
        expected = InteractiveDesigner(db).evaluate(second)
        designer = InteractiveDesigner(db)
        assert designer.evaluate(first).cost_after != expected.cost_after
        evaluation = designer.evaluate(second)
        assert evaluation.cost_after == expected.cost_after
        assert evaluation.rewritten_sql == expected.rewritten_sql


class TestScriptedSession:
    """A replan inside a session reuses the query's prepared planner
    state, a cached plan serves until an index that can serve its query
    moves, and the designer keeps base-side bindings across reset();
    none of it may move a plan. After every step of an add / drop /
    flag / partition / reset script over single- and multi-table
    queries, each displayed plan equals a fresh ``Planner.plan`` of the
    freshly parsed and bound statement under the session's design: in
    cost, in shape and in the what-if indexes it uses. The session
    replans exactly the queries whose serving indexes
    (``tests.reference.serving_indexes``) moved, or every query when
    the catalog or the join flags did, serves the rest from its cache,
    and never caches more than one plan or target binding per query."""

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
        shown_plans = []
        session_plan = WhatIfSession.plan

        def recorded(session, query):
            plan = session_plan(session, query)
            shown_plans.append(plan)
            return plan

        monkeypatch.setattr(WhatIfSession, "plan", recorded)
        designer = InteractiveDesigner(db)
        serving: dict[str, tuple] = {}

        def check(replans_all):
            session = designer.session
            prepares, misses = calls["prepare"], session.plan_cache_misses
            hits = session.plan_cache_hits
            shown_plans.clear()
            evaluation = designer.evaluate(workload)
            prepared_here = calls["prepare"] - prepares
            assert len(shown_plans) == len(workload)
            moved = 0
            for query, shown, plan in zip(
                workload, evaluation.per_query, shown_plans
            ):
                sql = evaluation.rewritten_sql[query.name]
                fresh = Planner(session.catalog, session.config).plan(
                    bind(session.catalog, parse_select(sql))
                )
                assert shown.cost_after == fresh.total_cost * query.weight, query.name
                assert plan_signature(plan) == plan_signature(fresh), query.name
                assert shown.indexes_used == sorted({
                    node.index_name
                    for node in fresh.walk()
                    if isinstance(node, IndexScan) and node.hypothetical
                }), query.name
                now = serving_indexes(session, sql)
                moved += serving.get(query.name) != now
                serving[query.name] = now
            expected = len(workload) if replans_all else moved
            assert session.plan_cache_misses - misses == expected
            assert session.plan_cache_hits - hits == len(workload) - expected
            # Plans and bindings cached under an older catalog version
            # are gone.
            assert len(session._plan_cache) <= len(workload)
            assert len(designer._bound_targets) <= len(workload)
            return prepared_here, expected

        assert check(True) == (2 * len(workload), len(workload))  # baseline + target
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
        flags = {2, 3, 7}
        replans = []
        for position, step in enumerate(script):
            step()
            prepared_here, replanned = check(position in fresh_catalog | flags)
            replans.append(replanned)
            if position in fresh_catalog:
                assert prepared_here == len(workload)
            else:  # indexes and flags replan from the kept state
                assert prepared_here == 0
        assert calls["bind"] == len(workload)  # base side: once, reset or not
        # Some index steps replan part of the workload, and not all of it.
        index_steps = [
            replans[position] for position in range(len(script))
            if position not in fresh_catalog | flags
        ]
        assert 0 < sum(index_steps) < len(index_steps) * len(workload)


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
