"""Interactive designer tests (demo scenario 1)."""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.advisor.candidates import generate_candidates
from repro.catalog.schema import Index
from repro.core.interactive import InteractiveDesigner
from repro.errors import WhatIfError
from repro.optimizer.planner import Planner
from repro.optimizer.plans import IndexScan, plan_signature
from repro.sql.binder import bind
from repro.sql.parser import parse_select
from repro.whatif.session import JOIN_FLAGS, JOIN_METHOD_FLAGS, WhatIfSession
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

    def test_reset_keeps_the_session_while_it_mirrors_the_database(
        self, designer, db
    ):
        session = designer.session
        designer.add_whatif_index("people", ("age",))
        session.set_join_flags(enable_nestloop=False, enable_seqscan=False)
        designer.reset()
        assert designer.session is session
        assert session.hypothetical_indexes == []
        assert all(getattr(session.config, flag) for flag in JOIN_FLAGS)
        # A table dropped behind the designer's back, then a real index:
        # each time the session no longer mirrors the database.
        session.drop_table("pets")
        designer.reset()
        assert designer.session is not session
        assert designer.session.catalog.has_table("pets")
        session = designer.session
        db.create_index(Index("real_age", "people", ("age",)))
        designer.reset()
        assert designer.session is not session
        expected = InteractiveDesigner(db).evaluate(WL)
        assert designer.evaluate(WL).cost_after == expected.cost_after

    def test_one_cache_lookup_per_query(self, designer):
        """The plan and the what-if indexes it uses come from one
        lookup of the session's cache."""
        designer.add_whatif_index("people", ("person_id",), name="w_id")
        designer.evaluate(WL)
        with mock.patch.object(
            WhatIfSession, "_serve", autospec=True, side_effect=WhatIfSession._serve
        ) as serve:
            evaluation = designer.evaluate(WL)
        assert serve.call_count == len(WL.queries)
        point = next(q for q in evaluation.per_query if q.name == "point")
        assert point.indexes_used == ["w_id"]


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
    keeps one plan per join-flag vector for each query (a query over one
    relation ignores the join-method flags) and replans a query exactly
    when it has no plan under the current flags or the
    indexes that can serve it (``tests.reference.serving_indexes``)
    moved since that plan was made; a partition step or reset() starts
    over exactly the queries that read the partitioned table. It
    serves the rest from its cache and never caches more than one
    query entry or target binding per query."""

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
        reads_specobj = {
            query.name
            for query in workload
            if "specobj" in {
                entry.table.name
                for entry in bind(db.catalog, parse_select(query.sql)).rels
            }
        }
        assert 0 < len(reads_specobj) < len(workload)
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
        # Per query, per join-flag vector: the serving indexes its plan
        # under those flags was made with. A query over one relation
        # never builds a join path, so its vector leaves out the
        # join-method flags.
        planned: dict[str, dict[tuple, tuple]] = {}
        joins: dict[str, bool] = {}

        def flags_of(name):
            config = designer.session.config
            return tuple(
                getattr(config, flag) for flag in JOIN_FLAGS
                if joins[name] or flag not in JOIN_METHOD_FLAGS
            )

        def check(retargeted=frozenset()):
            session = designer.session
            prepares, misses = calls["prepare"], session.plan_cache_misses
            hits = session.plan_cache_hits
            shown_plans.clear()
            evaluation = designer.evaluate(workload)
            prepared_here = calls["prepare"] - prepares
            assert len(shown_plans) == len(workload)
            expected = set()
            for query, shown, plan in zip(
                workload, evaluation.per_query, shown_plans
            ):
                sql = evaluation.rewritten_sql[query.name]
                target = bind(session.catalog, parse_select(sql))
                fresh = Planner(session.catalog, session.config).plan(target)
                assert shown.cost_after == fresh.total_cost * query.weight, query.name
                assert plan_signature(plan) == plan_signature(fresh), query.name
                assert shown.indexes_used == sorted({
                    node.index_name
                    for node in fresh.walk()
                    if isinstance(node, IndexScan) and node.hypothetical
                }), query.name
                if query.name in retargeted:
                    planned[query.name] = {}
                joins[query.name] = len(target.rels) > 1
                made = planned.setdefault(query.name, {})
                now = serving_indexes(session, sql)
                if made.get(flags_of(query.name)) != now:
                    expected.add(query.name)
                made[flags_of(query.name)] = now
            assert session.plan_cache_misses - misses == len(expected)
            assert session.plan_cache_hits - hits == len(workload) - len(expected)
            # Entries of superseded bindings are gone.
            assert len(session._plan_cache) <= len(workload)
            assert len(designer._bound_targets) <= len(workload)
            return prepared_here, expected

        # Baseline + target.
        assert check() == (2 * len(workload), {q.name for q in workload})
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
        partition, new_flags, flag_back, reset = 5, {2, 7}, 3, 8
        replans = []
        for position, step in enumerate(script):
            step()
            # Under the flags now set: the queries whose last plan had a
            # serving index.
            had_index = {
                name for name, made in planned.items()
                if any(served for _alias, served in made.get(flags_of(name), ()))
            }
            retargeted = reads_specobj if position in (partition, reset) else frozenset()
            prepared_here, replanned = check(retargeted)
            replans.append(len(replanned))
            # A new binding is prepared once; indexes and flags replan
            # from the kept state.
            assert prepared_here == len(retargeted)
            if position == partition:
                assert replanned == reads_specobj
            elif position == reset:
                assert had_index - reads_specobj
                assert replanned == reads_specobj | had_index
            elif position in new_flags:
                assert replanned == {name for name in joins if joins[name]}
        assert replans[flag_back] == 0
        assert calls["bind"] == len(workload)  # base side: once, reset or not
        # Some index steps replan part of the workload, and not all of it.
        index_steps = [
            replans[position] for position in range(len(script))
            if position not in {partition, reset, flag_back} | new_flags
        ]
        assert 0 < sum(index_steps) < len(index_steps) * len(workload)


_SDSS = build_sdss_database(photo_rows=1000, seed=5)
_SDSS_WL = Workload(
    name="generated",
    queries=[
        sdss_workload().query(name)
        for name in (
            "q01_box_search", "q08_brightest", "q15_spec_redshift_join",
            "q17_qso_spectra", "q22_close_pairs", "q24_merger_candidates",
            "q26_field_objects", "q27_field_seeing_join",
            "q29_spec_field_quality", "q30_parent_children",
        )
    ],
)
_POOL = sorted({
    (c.index.table_name, tuple(c.index.columns))
    for c in generate_candidates(_SDSS.catalog, _SDSS_WL)
})
_STEP = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_POOL)),
    st.tuples(st.just("drop"), st.integers(0, 20)),
    st.tuples(
        st.just("partition"),
        st.sampled_from(("photoobj", "specobj", "field", "neighbors")),
        st.integers(1, 12),
    ),
    st.tuples(st.just("flag"), st.sampled_from(JOIN_FLAGS), st.booleans()),
    st.tuples(st.just("reset")),
)


def _shown(designer, workload):
    """``designer.evaluate(workload)`` and the plan shown per query."""
    plans = []
    plan = WhatIfSession.plan

    def recorded(session, query):
        plans.append(plan(session, query))
        return plans[-1]

    with mock.patch.object(WhatIfSession, "plan", recorded):
        evaluation = designer.evaluate(workload)
    assert len(plans) == len(workload)
    return evaluation, plans


class TestGeneratedScripts:
    """After every step of a generated add / drop / partition / flag /
    reset script over SDSS queries, joins included, the designer shows
    what a fresh designer rebuilt to the same design shows: the same
    per-query costs bit for bit, plan shapes, what-if indexes and
    rewritten SQL. Its caches hold at most one entry per query."""

    @settings(max_examples=50, deadline=None)
    @given(script=st.lists(_STEP, min_size=1, max_size=10))
    @example(script=[
        ("add", ("photoobj", ("ra",))), ("partition", "specobj", 3),
        ("flag", "enable_seqscan", False), ("flag", "enable_nestloop", False),
        ("reset",), ("partition", "photoobj", 5), ("reset",),
    ])
    def test_every_step_equals_a_fresh_designer(self, script):
        workload = _SDSS_WL
        designer = InteractiveDesigner(_SDSS)
        standing: list[tuple[str, str, tuple]] = []
        schemes: list[tuple[str, list]] = []
        flags: dict[str, bool] = {}
        for position, step in enumerate(script):
            kind = step[0]
            if kind == "add":
                table, columns = step[1]
                if (table, columns) in {(t, c) for _n, t, c in standing}:
                    continue
                name = f"g{position}"
                designer.add_whatif_index(table, columns, name=name)
                standing.append((name, table, columns))
            elif kind == "drop":
                if not standing:
                    continue
                name = standing.pop(step[1] % len(standing))[0]
                designer.session.drop_index(name)
            elif kind == "partition":
                table = step[1]
                if table in {t for t, _f in schemes}:
                    continue
                spec = _SDSS.catalog.table(table)
                columns = [
                    c for c in spec.column_names if c not in spec.primary_key
                ]
                cut = 1 + step[2] % (len(columns) - 1)
                fragments = [tuple(columns[:cut]), tuple(columns[cut:])]
                designer.add_whatif_partitions(table, fragments)
                schemes.append((table, fragments))
            elif kind == "flag":
                designer.session.set_join_flags(**{step[1]: step[2]})
                flags[step[1]] = step[2]
            else:
                designer.reset()
                standing, schemes, flags = [], [], {}
            evaluation, plans = _shown(designer, workload)
            assert len(designer.session._plan_cache) <= len(workload)
            assert len(designer._bound_targets) <= len(workload)

            fresh = InteractiveDesigner(_SDSS)
            for index in designer.session.hypothetical_indexes:
                fresh.add_whatif_index(index.table_name, index.columns, name=index.name)
            for table, fragments in schemes:
                fresh.add_whatif_partitions(table, fragments)
            fresh.session.set_join_flags(**flags)
            expected, expected_plans = _shown(fresh, workload)
            assert evaluation.rewritten_sql == expected.rewritten_sql
            assert evaluation.cost_after == expected.cost_after
            for shown, want, plan, want_plan in zip(
                evaluation.per_query, expected.per_query, plans, expected_plans
            ):
                assert shown.cost_after == want.cost_after, shown.name
                assert shown.cost_before == want.cost_before, shown.name
                assert plan_signature(plan) == plan_signature(want_plan), shown.name
                assert shown.indexes_used == want.indexes_used, shown.name


class TestDirectCatalogChange:
    """A change made to ``session.catalog`` directly, not through the
    session, still invalidates every cached plan and binding."""

    @pytest.mark.parametrize("change", ["real_index", "statistics"])
    def test_every_cached_plan_is_replanned(self, change):
        designer = InteractiveDesigner(_SDSS)
        designer.add_whatif_index("specobj", ("z",), name="w_z")
        designer.add_whatif_partitions(
            "field", [("run", "camcol", "field_num"),
                      tuple(c for c in _SDSS.catalog.table("field").column_names
                            if c not in ("field_id", "run", "camcol", "field_num"))]
        )
        before = designer.evaluate(_SDSS_WL)
        session = designer.session
        catalog = session.catalog
        if change == "real_index":
            catalog.add_index(Index("real_ra", "photoobj", ("ra",)))
        else:
            stats = catalog.statistics("photoobj")
            catalog.set_statistics("photoobj", replace(
                stats, table=replace(stats.table, row_count=stats.table.row_count * 4)
            ))
        misses, hits = session.plan_cache_misses, session.plan_cache_hits
        evaluation, plans = _shown(designer, _SDSS_WL)
        assert session.plan_cache_misses - misses == len(_SDSS_WL)
        assert session.plan_cache_hits == hits
        for query, shown, plan in zip(_SDSS_WL, evaluation.per_query, plans):
            sql = evaluation.rewritten_sql[query.name]
            fresh = Planner(catalog, session.config).plan(
                bind(catalog, parse_select(sql))
            )
            assert shown.cost_after == fresh.total_cost * query.weight, query.name
            assert plan_signature(plan) == plan_signature(fresh), query.name
        assert evaluation.cost_after != before.cost_after


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
