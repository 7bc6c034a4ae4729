"""Join-search internals: interesting orders, candidates, merge reuse,
and the DP against the reference join search."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Index, PartitionScheme
from repro.optimizer.config import PlannerConfig
from repro.optimizer.joinsearch import JoinSearch, RelSet, order_satisfies
from repro.optimizer.planner import Planner
from repro.optimizer.plans import Join, MergeJoin, SeqScan, Sort
from repro.partitioning.autopart import AutoPartAdvisor
from repro.partitioning.fragments import fragment_with_pk
from repro.partitioning.rewrite import PartitionRewriter
from repro.sql.binder import bind
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql
from repro.whatif.session import WhatIfSession
from repro.workloads.sdss import build_sdss_database, sdss_workload

from tests.conftest import make_people_db
from tests.reference import ReferenceJoinSearch, reference_plan


class TestOrderSatisfies:
    def test_exact_match(self):
        order = (("t", "a"), ("t", "b"))
        assert order_satisfies(order, (("t", "a"),))
        assert order_satisfies(order, order)

    def test_longer_requirement_fails(self):
        assert not order_satisfies((("t", "a"),), (("t", "a"), ("t", "b")))

    def test_prefix_must_match_in_order(self):
        order = (("t", "a"), ("t", "b"))
        assert not order_satisfies(order, (("t", "b"),))

    def test_empty_requirement_always_satisfied(self):
        assert order_satisfies((), ())
        assert order_satisfies((("t", "a"),), ())


class TestRelSet:
    def scan(self, cost, order=()):
        return SeqScan(
            startup_cost=0.0, total_cost=cost, rows=10, width=8,
            out_order=order, alias="t", table_name="t",
        )

    def test_cheapest_tracked(self):
        rs = RelSet(aliases=frozenset({"t"}), rows=10, width=8)
        rs.consider(self.scan(100))
        rs.consider(self.scan(50))
        rs.consider(self.scan(75))
        assert rs.cheapest.total_cost == 50

    def test_ordered_plans_kept_even_if_costlier(self):
        rs = RelSet(aliases=frozenset({"t"}), rows=10, width=8)
        rs.consider(self.scan(50))
        rs.consider(self.scan(80, order=(("t", "a"),)))
        candidates = rs.candidates()
        assert len(candidates) == 2
        assert any(p.out_order for p in candidates)

    def test_cheaper_plan_per_order_replaces(self):
        rs = RelSet(aliases=frozenset({"t"}), rows=10, width=8)
        rs.consider(self.scan(80, order=(("t", "a"),)))
        rs.consider(self.scan(60, order=(("t", "a"),)))
        ordered = [p for p in rs.candidates() if p.out_order]
        assert len(ordered) == 1 and ordered[0].total_cost == 60

    def test_dominated_ordered_plan_not_duplicated(self):
        rs = RelSet(aliases=frozenset({"t"}), rows=10, width=8)
        rs.consider(self.scan(50, order=(("t", "a"),)))
        # cheapest IS the ordered plan: candidates() must not repeat it.
        assert len(rs.candidates()) == 1


class TestMergeJoinOrderReuse:
    @staticmethod
    def indexed_db(rows):
        database = make_people_db(rows=rows, seed=67)
        database.create_index(Index("ix_pid", "people", ("person_id",)))
        database.create_index(Index("ix_owner", "pets", ("owner_id",)))
        return database

    @pytest.fixture(scope="class")
    def db(self):
        return self.indexed_db(3000)

    def test_merge_join_skips_sort_on_indexed_side(self, db):
        config = PlannerConfig().with_flags(
            enable_hashjoin=False, enable_nestloop=False
        )
        plan = Planner(db.catalog, config).plan(
            bind(
                db.catalog,
                parse_select(
                    "select p.age from people p, pets q "
                    "where p.person_id = q.owner_id"
                ),
            )
        )
        merge = next(n for n in plan.walk() if isinstance(n, MergeJoin))
        # At least one side should come pre-sorted from its index.
        sides_sorted_by_node = sum(
            isinstance(side, Sort) for side in (merge.outer, merge.inner)
        )
        assert sides_sorted_by_node < 2, (
            "index order should spare at least one explicit sort"
        )

    def test_merge_join_correct_without_sorts(self):
        from repro.executor.executor import execute
        from tests.reference import rows_equal, run_reference

        # Both competing join methods are off, so the plan is the same
        # merge join at any size; the reference engine materializes the
        # cartesian product, so keep the database small.
        db = self.indexed_db(300)
        config = PlannerConfig().with_flags(
            enable_hashjoin=False, enable_nestloop=False
        )
        query = bind(
            db.catalog,
            parse_select(
                "select p.person_id, q.pet_id from people p, pets q "
                "where p.person_id = q.owner_id and q.weight > 30"
            ),
        )
        plan = Planner(db.catalog, config).plan(query)
        merge = next(n for n in plan.walk() if isinstance(n, MergeJoin))
        assert not (isinstance(merge.outer, Sort) and isinstance(merge.inner, Sort))
        result = execute(db, plan)
        assert rows_equal(result.rows, run_reference(db, query), ordered=False)


# ----------------------------------------------------------------------
# The join search against the reference DP (tests/reference.py)


def has_clauseless_join(plan) -> bool:
    return any(isinstance(node, Join) and not node.join_quals for node in plan.walk())


def assert_same_plan(plan, oracle) -> None:
    assert plan == oracle
    assert plan.total_cost == oracle.total_cost


class CountingSearch(JoinSearch):
    """The join search, recording how many sets its DP table ends with."""

    sizes: list[int] = []

    def run(self):
        final = super().run()
        CountingSearch.sizes.append(len(self._table))
        return final


@pytest.fixture(scope="module")
def sdss():
    return build_sdss_database(photo_rows=3000, seed=42)


# Per SDSS table: columns a join may equate, and restrictions by alias.
JOIN_KEYS = {
    "photoobj": ("objid", "field_id", "specobjid", "run", "mjd", "parentid"),
    "specobj": ("specobjid", "bestobjid", "mjd", "plate"),
    "neighbors": ("objid", "neighborobjid", "neighbor_id"),
    "field": ("field_id", "run", "mjd"),
}
RESTRICTIONS = {
    "photoobj": ("{a}.ra < 120", "{a}.obj_type = 3", "{a}.psfmag_r < 19",
                 "{a}.dec between -5 and 5", "{a}.run = 756"),
    "specobj": ("{a}.z > 0.1", "{a}.specclass = 'QSO'", "{a}.plate = 300"),
    "neighbors": ("{a}.distance < 0.1", "{a}.neighbortype = 3"),
    "field": ("{a}.quality = 3", "{a}.seeing < 1.2", "{a}.camcol = 2"),
}
WHATIF_INDEXES = (
    ("photoobj", ("objid",)), ("photoobj", ("field_id",)),
    ("photoobj", ("specobjid",)), ("photoobj", ("ra",)),
    ("photoobj", ("run", "camcol")), ("photoobj", ("obj_type", "psfmag_r")),
    ("specobj", ("specobjid",)), ("specobj", ("bestobjid",)),
    ("specobj", ("z",)), ("specobj", ("plate",)),
    ("neighbors", ("objid",)), ("neighbors", ("neighborobjid",)),
    ("neighbors", ("distance",)), ("field", ("field_id",)),
    ("field", ("run",)), ("field", ("quality",)),
)
FLAGS = (
    "enable_nestloop", "enable_hashjoin", "enable_mergejoin", "enable_seqscan",
    "enable_indexscan", "enable_indexonlyscan", "enable_sort",
    "enable_parameterized_paths",
)


@st.composite
def join_queries(draw, ops=("=", "=", "=", "<")):
    """(sql, connected, what-if indexes, off flags) over 1-5 SDSS relations
    joined as a chain, a star, a cycle, or a disconnected graph, each
    join clause's operator drawn from ``ops``."""
    n = draw(st.sampled_from((4, 3, 5, 2, 1)))
    tables = [draw(st.sampled_from(sorted(JOIN_KEYS))) for _ in range(n)]
    shape = draw(st.sampled_from(
        ("chain", "star", "cycle", "disconnected") if n > 1 else ("chain",)
    ))
    edges = [(0, i) for i in range(1, n)] if shape == "star" else [
        (i, i + 1) for i in range(n - 1)
    ]
    if shape == "cycle" and n > 2:
        edges.append((n - 1, 0))
    if shape == "disconnected":
        dropped = draw(st.sets(st.sampled_from(edges), min_size=1))
        edges = [e for e in edges if e not in dropped]
    quals = []
    for i, j in edges:
        left = draw(st.sampled_from(JOIN_KEYS[tables[i]]))
        right = draw(st.sampled_from(JOIN_KEYS[tables[j]]))
        op = draw(st.sampled_from(ops))
        quals.append(f"t{i}.{left} {op} t{j}.{right}")
    for i, table in enumerate(tables):
        for pattern in draw(st.sets(st.sampled_from(RESTRICTIONS[table]), max_size=2)):
            quals.append(pattern.format(a=f"t{i}"))
    first_key = f"t0.{JOIN_KEYS[tables[0]][0]}"
    select = draw(st.sampled_from((
        "select count(*)",
        f"select {first_key}",
        f"select {first_key}, count(*)",
    )))
    sql = f"{select} from " + ", ".join(f"{t} t{i}" for i, t in enumerate(tables))
    if quals:
        sql += " where " + " and ".join(sorted(quals))
    if "count(*)" in select and "," in select:
        sql += f" group by {first_key}"
    elif draw(st.booleans()):
        sql += f" order by {first_key}"
    indexes = draw(st.sets(st.sampled_from(WHATIF_INDEXES), max_size=4))
    off = draw(st.sets(st.sampled_from(FLAGS), max_size=3))
    return sql, shape != "disconnected", sorted(indexes), sorted(off)


class TestAgainstReferenceDP:
    @settings(max_examples=80, deadline=None)
    @given(case=join_queries())
    @example(  # a merge join with the right side outer wins a middle set
        case=(
            "select count(*) from field t0, field t1, field t2, field t3 "
            "where t0.field_id = t1.field_id and t0.field_id = t2.field_id "
            "and t0.field_id = t3.field_id",
            True,
            [],
            ["enable_hashjoin"],
        )
    )
    def test_generated_join_graphs(self, sdss, case):
        sql, connected, indexes, off = case
        config = PlannerConfig().with_flags(**{flag: False for flag in off})
        session = WhatIfSession(sdss.catalog, config)
        for table, columns in indexes:
            session.add_index(table, columns)
        planner = session.planner()
        query = session.bind_sql(sql)
        plan, oracle = planner.plan(query), reference_plan(planner, query)
        if not connected or not has_clauseless_join(oracle):
            assert_same_plan(plan, oracle)
        else:
            # The reference's best joins a cartesian product into a
            # connected graph; the join search never builds one.
            assert plan.total_cost >= oracle.total_cost

    def test_sdss_queries(self, sdss):
        planner = Planner(sdss.catalog)
        for query in sdss_workload():
            bound = query.bind(sdss.catalog)
            assert_same_plan(planner.plan(bound), reference_plan(planner, bound))

    def test_e2_autopart_rewrites(self, monkeypatch):
        # E2's database and sweep (benchmarks/bench_e2_autopart.py): every
        # query AutoPart prices, rewritten onto its trial fragments.
        db = build_sdss_database(photo_rows=12000, seed=42)
        plan_prepared = Planner.plan_prepared
        # (SQL, each relation's columns) -> relations: the three sweeps
        # price mostly the same rewrites, so each is checked once.
        checked = {}

        def plan_both(planner, query, prepared):
            plan = plan_prepared(planner, query, prepared)
            key = (
                to_sql(query.statement),
                tuple(entry.table.column_names for entry in query.rels),
            )
            if key not in checked:
                with mock.patch(
                    "repro.optimizer.planner.JoinSearch", ReferenceJoinSearch
                ):
                    oracle = plan_prepared(planner, query, prepared)
                assert_same_plan(plan, oracle)
                checked[key] = len(query.rels)
            return plan

        monkeypatch.setattr(Planner, "plan_prepared", plan_both)
        for limit in (0.0, 0.25, 0.5):
            AutoPartAdvisor(
                db.catalog,
                replication_limit=limit,
                max_iterations=6,
                candidates_per_iteration=16,
            ).recommend(sdss_workload())
        assert max(checked.values()) == 5  # up to five fragments were joined


class TestConnectedSubsets:
    def test_five_fragment_rewrite_builds_connected_sets_only(self, sdss):
        # A rewrite joins every fragment to the first on the primary key:
        # a star, whose connected sets are the 2^(k-1) holding the centre
        # plus the k-1 other single fragments: 20 of all 31 subsets.
        table = sdss.catalog.table("photoobj")
        groups = [("ra", "dec"), ("run", "camcol"), ("psfmag_r",), ("g_r",)]
        rest = tuple(
            c for c in table.column_names
            if c != "objid" and all(c not in g for g in groups)
        )
        scheme = PartitionScheme(
            "photoobj",
            tuple(fragment_with_pk(table, g) for g in groups + [rest]),
        )
        session = WhatIfSession(sdss.catalog)
        for position, columns in enumerate(scheme.fragments):
            session.add_partition_table(
                "photoobj", columns, scheme.fragment_name(position)
            )
        bound = bind(
            sdss.catalog,
            parse_select(
                "select p.ra, p.run, p.psfmag_r, p.g_r, p.mjd from photoobj p "
                "where p.dec > 10"
            ),
        )
        rewritten = PartitionRewriter({"photoobj": scheme}).rewrite(bound)
        query = bind(session.catalog, rewritten)
        assert len(query.rels) == 5
        planner = session.planner()
        CountingSearch.sizes = []
        with mock.patch("repro.optimizer.planner.JoinSearch", CountingSearch):
            plan = planner.plan(query)
        assert CountingSearch.sizes == [2 ** 4 + 4]
        assert_same_plan(plan, reference_plan(planner, query))
