"""ILP index advisor tests: constraints, optimality, reporting."""

import itertools
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advisor import ilp_advisor
from repro.advisor.candidates import generate_candidates
from repro.advisor.compress import compress_statements
from repro.advisor.ilp_advisor import IlpIndexAdvisor, Selection, greedy_select
from repro.errors import AdvisorError
from repro.ilp.branch_bound import BranchAndBoundSolver
from repro.ilp.model import Sense
from repro.inum.batch import WorkloadEvaluator
from repro.inum.model import InumModel
from repro.optimizer.config import PlannerConfig
from repro.parallel.caches import CostCache
from repro.resilience import faults
from repro.resilience.faults import FaultInjector
from repro.workloads.sdss import build_sdss_database, sdss_workload
from repro.workloads.star import star_workload
from repro.workloads.workload import Query, Workload

from tests import reference, test_compress
from tests.conftest import make_people_db
from tests.reference import HighsSolver, highs_solve
from tests.test_joinsearch import JOIN_KEYS, RESTRICTIONS


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
    HiGHS: the same status, and the same objective to the solver's
    absolute gap tolerance."""

    @pytest.fixture()
    def solved(self, monkeypatch):
        """(program, built-in solution) per solve."""
        captured = []

        class Recording(BranchAndBoundSolver):
            def solve(self, program):
                solution = super().solve(program)
                captured.append((program, solution))
                return solution

        monkeypatch.setattr(ilp_advisor, "BranchAndBoundSolver", Recording)
        return captured

    @staticmethod
    def assert_agree(solved, count):
        assert len(solved) == count
        for program, ours in solved:
            theirs = highs_solve(program)
            assert ours.status == theirs.status == "optimal"
            assert abs(ours.objective - theirs.objective) <= 1e-6

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
        # Scale mode builds the per-pair program: one y <= x row for
        # every (query, candidate) pair, each on the pair's own x.
        program = solved[0][0]
        names = {var.index: var.name for var in program.variables}
        coupling = []
        for row in program.constraints:
            terms = sorted(row.coefficients.items(), key=lambda t: -t[1])
            if row.sense is Sense.LE and row.rhs == 0.0 and [
                coefficient for _var, coefficient in terms
            ] == [1.0, -1.0]:
                coupling.append((names[terms[0][0]], names[terms[1][0]]))
        pairs = sorted(name for name in names.values() if name.startswith("y_"))
        assert pairs and sorted(y for y, _x in coupling) == pairs
        assert all(x == "x_" + y.rsplit("_", 1)[1] for y, x in coupling)
        self.assert_agree(solved, 1)

    def test_update_rate_sweep_with_a_cap(self, sdss_db, solved):
        cache = CostCache()
        for rate in (0.0, 1.0, 5.0, 25.0, 125.0, 625.0):
            IlpIndexAdvisor(sdss_db.catalog, cost_cache=cache).recommend(
                sdss_workload(), 600,
                update_rates={"photoobj": rate}, max_update_cost=40.0,
            )
        self.assert_agree(solved, 6)


# ----------------------------------------------------------------------
# The optimality oracle: brute force over every feasible subset


SDSS_TABLES = ("field", "photoobj", "specobj", "neighbors")
STAR_TABLES = ("sales", "product", "store")
STAR_JOIN_KEYS = {"product": "product_id", "store": "store_id"}
STAR_RESTRICTIONS = {
    "sales": ("{a}.sold_on between 100 and 130", "{a}.amount > 200",
              "{a}.channel = 2", "{a}.promo_id = 7", "{a}.quantity < 3"),
    "product": ("{a}.category = 'gizmo'", "{a}.price < 10"),
    "store": ("{a}.region = 'north'", "{a}.size_class = 3"),
}


@st.composite
def sdss_join(draw):
    """Two or three SDSS relations in an equi-join chain."""
    tables = draw(st.lists(
        st.sampled_from(sorted(JOIN_KEYS)), min_size=2, max_size=3
    ))
    quals = [
        f"t{i}.{draw(st.sampled_from(JOIN_KEYS[tables[i]]))} = "
        f"t{i + 1}.{draw(st.sampled_from(JOIN_KEYS[tables[i + 1]]))}"
        for i in range(len(tables) - 1)
    ]
    for i, table in enumerate(tables):
        for pattern in draw(
            st.sets(st.sampled_from(RESTRICTIONS[table]), max_size=2)
        ):
            quals.append(pattern.format(a=f"t{i}"))
    key = f"t0.{JOIN_KEYS[tables[0]][0]}"
    return (
        f"select {key}, count(*) from "
        + ", ".join(f"{t} t{i}" for i, t in enumerate(tables))
        + " where " + " and ".join(sorted(quals)) + f" group by {key}"
    )


@st.composite
def star_join(draw):
    """The sales fact table joined to one or both dimensions."""
    dimensions = draw(st.lists(
        st.sampled_from(sorted(STAR_JOIN_KEYS)),
        min_size=1, max_size=2, unique=True,
    ))
    tables = ["sales", *dimensions]
    quals = [
        f"t0.{STAR_JOIN_KEYS[d]} = t{i}.{STAR_JOIN_KEYS[d]}"
        for i, d in enumerate(dimensions, start=1)
    ]
    for i, table in enumerate(tables):
        for pattern in draw(
            st.sets(st.sampled_from(STAR_RESTRICTIONS[table]), max_size=2)
        ):
            quals.append(pattern.format(a=f"t{i}"))
    return (
        "select sum(t0.amount) from "
        + ", ".join(f"{t} t{i}" for i, t in enumerate(tables))
        + " where " + " and ".join(sorted(quals))
    )


@st.composite
def oracle_workloads(draw):
    """("sdss" or "star", a workload of 3-10 weighted queries)."""
    schema = draw(st.sampled_from(("sdss", "star")))
    if schema == "sdss":
        shapes = st.one_of(
            st.sampled_from([q.sql for q in sdss_workload()]), sdss_join()
        )
    else:
        shapes = st.one_of(
            st.sampled_from([q.sql for q in star_workload()]), star_join()
        )
    sqls = draw(st.lists(shapes, min_size=3, max_size=10))
    weights = draw(st.lists(
        st.sampled_from((1.0, 2.0, 5.0)), min_size=len(sqls), max_size=len(sqls)
    ))
    return schema, Workload(
        queries=[
            Query(f"q{i}", sql, weight=weight)
            for i, (sql, weight) in enumerate(zip(sqls, weights))
        ],
        name="oracle",
    )


@pytest.fixture(scope="module")
def oracle_dbs(sdss_db, star_db):
    """Each schema's catalog with one cost cache shared by the examples."""
    return {
        "sdss": (sdss_db.catalog, CostCache()),
        "star": (star_db.catalog, CostCache()),
    }


def brute_force_minimum(advisor, workload, pool, budget, upkeep, cap):
    """The least ``workload_cost`` plus maintenance over every subset of
    ``pool`` within the storage budget and the update-cost cap."""
    models = advisor.build_models(workload)
    evaluator = WorkloadEvaluator(
        [models[q.name] for q in workload],
        [q.weight for q in workload],
        [c.index for c in pool],
    )
    sizes = [c.size_pages for c in pool]
    feasible = [
        subset
        for r in range(len(pool) + 1)
        for subset in itertools.combinations(range(len(pool)), r)
        if sum(sizes[p] for p in subset) <= budget
        and (cap is None or sum(upkeep[p] for p in subset) <= cap)
    ]
    evaluator.prime(feasible)
    return min(
        evaluator.workload_cost(subset) + sum(upkeep[p] for p in subset)
        for subset in feasible
    )


def reads_a_table_twice(catalog, workload) -> bool:
    """Whether some query reads one table through two aliases."""
    for query in workload:
        tables = [entry.table.name for entry in query.bind(catalog).rels]
        if len(set(tables)) < len(tables):
            return True
    return False


class TestBruteForceOracle:
    """On small instances the advise is exactly optimal: its
    ``cost_after`` (full INUM pricing plus maintenance) equals the
    minimum over every subset of the unpruned pool that fits the
    storage budget and the update-cost cap, with refine on and off.

    The one known exception is the ILP alone on a self-join: the
    program has one access-path row per (query, table), so two aliases
    of one table cannot each count an index. Refine prices full INUM
    estimates and closes that gap; ``test_ilp_alone_on_a_self_join``
    pins the smallest instance found."""

    @settings(max_examples=12, deadline=None)
    @given(instance=oracle_workloads(), data=st.data())
    def test_recommend_matches_brute_force(self, oracle_dbs, instance, data):
        schema, workload = instance
        catalog, cache = oracle_dbs[schema]
        advisor = IlpIndexAdvisor(catalog, cost_cache=cache)
        generated = generate_candidates(catalog, workload, cost_cache=cache)
        pool = [
            generated[p]
            for p in data.draw(st.lists(
                st.sampled_from(range(len(generated))),
                min_size=1, max_size=12, unique=True,
            ))
        ]
        budget = data.draw(st.integers(1, sum(c.size_pages for c in pool)))
        tables = sorted({c.index.table_name for c in pool})
        rates = data.draw(st.none() | st.dictionaries(
            st.sampled_from(tables), st.sampled_from((0.5, 2.0, 10.0, 40.0)),
            min_size=1,
        ))
        config = PlannerConfig()
        per_update = config.random_page_cost + 50 * config.cpu_operator_cost
        upkeep = [
            (rates or {}).get(c.index.table_name, 0.0) * per_update for c in pool
        ]
        cap = None
        if rates:
            cap = data.draw(st.none() | st.floats(0.0, sum(upkeep)))

        best = brute_force_minimum(advisor, workload, pool, budget, upkeep, cap)
        self_join = reads_a_table_twice(catalog, workload)
        for refine in (True, False):
            result = advisor.recommend(
                workload, budget, update_rates=rates, max_update_cost=cap,
                refine=refine, candidates=pool,
            )
            assert not result.degraded
            assert result.size_pages <= budget
            if refine or not self_join:
                assert result.cost_after == pytest.approx(best, rel=1e-9), (
                    f"refine={refine}"
                )
            else:
                assert result.cost_after >= best * (1 - 1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="one access-path row per (query, table): the ILP cannot "
        "give a self-join's two photoobj aliases an index each",
    )
    def test_ilp_alone_on_a_self_join(self, oracle_dbs):
        catalog, cache = oracle_dbs["sdss"]
        box = sdss_workload().query("q01_box_search").sql
        workload = Workload(
            queries=[Query(f"q{i}", box) for i in range(3)] + [Query(
                "q3",
                "select t0.field_id, count(*) from field t0, photoobj t1, "
                "photoobj t2 where t0.field_id = t1.objid and "
                "t1.objid = t2.objid and t2.ra < 120 group by t0.field_id",
            )],
            name="oracle",
        )
        advisor = IlpIndexAdvisor(catalog, cost_cache=cache)
        pool = generate_candidates(catalog, workload, cost_cache=cache)[:5]
        best = brute_force_minimum(advisor, workload, pool, 23, [0.0] * 5, None)
        result = advisor.recommend(workload, 23, refine=False, candidates=pool)
        assert result.cost_after == pytest.approx(best, rel=1e-9)


# ----------------------------------------------------------------------
# The refine climb against the sequential climb (tests/reference.py)


@st.composite
def sdss_self_join(draw):
    """photoobj read through two aliases, optionally joined to field:
    the shape whose gap in the ILP alone the climb's adds close."""
    key = draw(st.sampled_from(("objid", "field_id", "run")))
    tables = ["photoobj t1", "photoobj t2"]
    quals = [f"t1.{key} = t2.{key}"]
    lead = f"t1.{key}"
    if draw(st.booleans()):
        tables.insert(0, "field t0")
        quals.append("t0.field_id = t1.field_id")
        lead = "t0.field_id"
    for alias in ("t1", "t2"):
        for pattern in draw(
            st.sets(st.sampled_from(RESTRICTIONS["photoobj"]), max_size=2)
        ):
            quals.append(pattern.format(a=alias))
    return (
        f"select {lead}, count(*) from " + ", ".join(tables)
        + " where " + " and ".join(sorted(quals)) + f" group by {lead}"
    )


@st.composite
def climb_workloads(draw):
    """("sdss" or "star", a workload of 2-8 queries), SDSS self-joins
    among the SDSS shapes."""
    schema = draw(st.sampled_from(("sdss", "star")))
    if schema == "sdss":
        shapes = st.one_of(
            st.sampled_from([q.sql for q in sdss_workload()]),
            sdss_join(),
            sdss_self_join(),
        )
    else:
        shapes = st.one_of(
            st.sampled_from([q.sql for q in star_workload()]), star_join()
        )
    sqls = draw(st.lists(shapes, min_size=2, max_size=8))
    return schema, Workload(
        queries=[Query(f"q{i}", sql) for i, sql in enumerate(sqls)],
        name="climb",
    )


@contextmanager
def refine_inputs():
    """Record the arguments of every ``_refine`` call of an advise."""
    calls = []
    real = IlpIndexAdvisor._refine

    def record(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(IlpIndexAdvisor, "_refine", staticmethod(record)):
        yield calls


class TestRefineMatchesTheSequentialClimb:
    """The climb prices each scan in array batches from a cursor, and
    must take exactly the moves of the one-trial-at-a-time climb
    (``reference.refine_climb``): the same position list from the ILP's
    seed, the greedy search's, the empty design and random designs.
    The ILP's seed rarely moves, so the other seeds are what make
    drops, adds and swaps fire; the test fails if any kind never did."""

    def test_same_positions_as_the_sequential_climb(self, oracle_dbs):
        moves: dict[str, int] = {}

        @settings(max_examples=30, deadline=None)
        @given(instance=climb_workloads(), data=st.data())
        def check(instance, data):
            schema, workload = instance
            catalog, cache = oracle_dbs[schema]
            # Candidates are 1-27 pages: half the budgets bind.
            budget = data.draw(
                st.integers(10, 60) | st.integers(10, 3000)
            )
            taxed = SDSS_TABLES if schema == "sdss" else STAR_TABLES
            rates = data.draw(st.none() | st.dictionaries(
                st.sampled_from(taxed),
                st.sampled_from((0.5, 2.0, 10.0, 40.0)),
                min_size=1,
            ))
            cap = None
            if rates:
                cap = data.draw(st.none() | st.floats(0.0, 500.0))
            advisor = IlpIndexAdvisor(catalog, cost_cache=cache)
            with refine_inputs() as calls:
                advisor.recommend(
                    workload, budget, update_rates=rates, max_update_cost=cap
                )
            [(candidates, evaluator, solved, _, maintenance, _)] = calls
            positions = range(len(candidates))
            greedy = greedy_select(
                candidates, evaluator, positions, budget, maintenance, cap
            )
            runs = [(solved, budget), ([], budget), (greedy, budget)]
            if candidates:
                runs += [
                    (data.draw(st.lists(
                        st.sampled_from(positions), max_size=6, unique=True
                    )), budget)
                    for _ in range(2)
                ]
                # Several indexes on one table compete for each swap, in
                # a budget that barely holds them.
                table = data.draw(st.sampled_from(sorted(
                    {c.index.table_name for c in candidates}
                )))
                seed = data.draw(st.lists(
                    st.sampled_from([
                        p for p in positions
                        if candidates[p].index.table_name == table
                    ]),
                    max_size=4, unique=True,
                ))
                tight = sum(candidates[p].size_pages for p in seed)
                runs.append(
                    (seed, max(10, tight + data.draw(st.integers(0, 10))))
                )
            # One round shows each scan's own moves; the full climb
            # shows where the rounds lead.
            for rounds in (1, ilp_advisor._MAX_REFINE_ROUNDS):
                for seed, pages in runs:
                    expected = reference.refine_climb(
                        candidates, evaluator, seed, pages, maintenance,
                        cap, max_rounds=rounds, moves=moves,
                    )
                    with mock.patch.object(
                        ilp_advisor, "_MAX_REFINE_ROUNDS", rounds
                    ):
                        climbed = IlpIndexAdvisor._refine(
                            candidates, evaluator, seed, pages,
                            maintenance, cap,
                        )
                    assert climbed == expected, (
                        f"seed {seed}, {pages} pages, {rounds} rounds"
                    )

        check()
        assert set(moves) == {"drop", "add", "swap"}, moves


# ----------------------------------------------------------------------
# One benefit array: the program and the fallback against their
# mapping-based references (tests/reference.py)


def program_key(program):
    """What the solver reads from a program, in order, floats as hex."""
    return (
        [(v.name, v.index, v.is_integer, v.upper_bound)
         for v in program.variables],
        [
            (
                [(i, float(c).hex()) for i, c in row.coefficients.items()],
                row.sense,
                float(row.rhs).hex(),
                row.name,
            )
            for row in program.constraints
        ],
        [(i, float(c).hex()) for i, c in program._objective.items()],
    )


@contextmanager
def spying():
    """Record ``select``'s (workload, candidates, evaluator) and every
    program handed to the branch and bound."""
    seen = {"inputs": [], "programs": []}
    real_select = IlpIndexAdvisor.select
    real_solve = BranchAndBoundSolver.solve

    def select(advisor, workload, candidates, evaluator, *args, **kwargs):
        seen["inputs"].append((workload, candidates, evaluator))
        return real_select(advisor, workload, candidates, evaluator,
                           *args, **kwargs)

    def solve(solver, program):
        seen["programs"].append(program)
        return real_solve(solver, program)

    with mock.patch.object(IlpIndexAdvisor, "select", select), \
            mock.patch.object(BranchAndBoundSolver, "solve", solve):
        yield seen




class TestProgramMatchesTheMapping:
    """The program built from the savings array is the one the benefit
    mapping built: the same variables, rows, objective, in order."""

    @pytest.fixture(scope="class")
    def sdss_cache(self):
        return CostCache()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_program_identity(self, sdss_db, sdss_cache, data):
        names = [q.name for q in sdss_workload()]
        chosen = data.draw(st.lists(
            st.sampled_from(names), min_size=1, max_size=len(names),
            unique=True,
        ))
        workload = Workload(
            queries=[sdss_workload().query(name) for name in chosen],
            name="subset",
        )
        budget = data.draw(st.integers(1, 3000))
        rates = data.draw(st.none() | st.dictionaries(
            st.sampled_from(SDSS_TABLES),
            st.sampled_from((0.0, 0.5, 2.0, 10.0, 40.0)),
            min_size=1,
        ))
        cap = None
        if rates:
            cap = data.draw(st.none() | st.floats(0.0, 2000.0))
        advisor = IlpIndexAdvisor(sdss_db.catalog, cost_cache=sdss_cache)
        with spying() as seen:
            advisor.recommend(
                workload, budget, update_rates=rates, max_update_cost=cap,
                refine=False,
            )
        [(surviving, candidates, evaluator)] = seen["inputs"]
        maintenance = reference.ilp_maintenance(
            PlannerConfig(), candidates, rates
        )
        expected = reference.ilp_program(
            surviving, candidates,
            reference.ilp_benefit_mapping(
                surviving, candidates, evaluator, maintenance
            ),
            budget, maintenance, cap,
        )
        if expected is None:
            assert seen["programs"] == []
        else:
            [program] = seen["programs"]
            assert program_key(program) == program_key(expected)


# Seeded with the greedy design, the refine climb stops at 1 387.13
# here; seeded with the additive one it reaches 1 358.59, the optimum.
REFINE_TRAP = ("sdss", 100, "none", True)
FALLBACK_SWEEP = [
    pytest.param(
        *case,
        marks=pytest.mark.xfail(
            strict=True,
            reason="the refine climb from the greedy seed ends in a "
            "worse local optimum than from the additive seed",
        ),
    ) if case == REFINE_TRAP else case
    for case in itertools.product(
        ("sdss", "star"), (20, 100, 200, 2000),
        ("none", "rates", "capped"), (False, True),
    )
]


class TestGreedyFallback:
    """A failed solve falls back to the shared greedy search over the
    pruned pool. On a fixed sweep its design costs no more than the
    additive fallback's, which ranked singleton benefits: always as a
    seed, and after the refine climb everywhere but one pinned case."""

    @pytest.fixture(scope="class")
    def schemas(self, sdss_db, star_db):
        return {
            "sdss": (sdss_db.catalog, sdss_workload(), "photoobj", CostCache()),
            "star": (star_db.catalog, star_workload(), "sales", CostCache()),
        }

    @pytest.mark.parametrize("schema,budget,updates,refine", FALLBACK_SWEEP)
    def test_no_worse_than_the_additive_fallback(
        self, schemas, schema, budget, updates, refine
    ):
        catalog, workload, hot, cache = schemas[schema]
        rates = None if updates == "none" else {hot: 20.0}
        cap = 30.0 if updates == "capped" else None
        advisor = IlpIndexAdvisor(catalog, cost_cache=cache)
        with spying() as seen, faults.injecting(
            FaultInjector.from_spec("solver.iterate:1")
        ):
            result = advisor.recommend(
                workload, budget, update_rates=rates, max_update_cost=cap,
                refine=refine,
            )
        assert result.solver_status == "greedy-fallback"
        [(surviving, candidates, evaluator)] = seen["inputs"]

        config = PlannerConfig()
        maintenance = reference.ilp_maintenance(config, candidates, rates)
        seed = reference.additive_greedy_fallback(
            candidates,
            reference.ilp_benefit_mapping(
                surviving, candidates, evaluator, maintenance
            ),
            budget, maintenance, cap,
        )
        if refine:
            seed = IlpIndexAdvisor._refine(
                candidates, evaluator, seed, budget,
                [maintenance.get(p, 0.0) for p in range(len(candidates))],
                cap,
            )
        additive = IlpIndexAdvisor._price_recommendation(
            surviving, evaluator, candidates,
            Selection(seed, "greedy-fallback", maintenance_cost=sum(
                maintenance.get(p, 0.0) for p in seed
            )),
            budget,
        )
        assert result.size_pages <= budget
        if cap is not None:
            assert result.maintenance_cost <= cap + 1e-9
        assert result.cost_after <= additive.cost_after
