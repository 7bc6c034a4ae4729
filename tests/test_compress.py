"""Workload compression tests: folding, and the bit-identity contract.

The CoPhy scale mode promises that advising a compressed stream and
advising its weight-equivalent expanded workload produce *bit-identical*
recommendations. These tests pin that with ``struct.pack`` on every
reported float — not ``pytest.approx``.
"""

import itertools
import struct

import pytest

from repro.advisor import ilp_advisor
from repro.advisor.compress import compress_statements, fold_workload
from repro.advisor.ilp_advisor import IlpIndexAdvisor
from repro.online import monitor
from repro.online.monitor import render_statement
from repro.sql.tokenizer import Token, TokenType, tokenize
from repro.workloads.sdss import build_sdss_database, sdss_workload
from repro.workloads.workload import Query, Workload

from tests.conftest import make_people_db
from tests.reference import HighsSolver


@pytest.fixture(scope="module")
def db():
    return make_people_db(rows=3000, seed=29)


def people_stream(rounds: int = 12) -> list[str]:
    """A deterministic statement stream: 4 SELECT shapes with varying
    literals, plus an UPDATE every 5th statement."""
    stream: list[str] = []
    for i in range(rounds):
        stream.append(f"select age from people where person_id = {40 + i}")
        stream.append(
            f"select person_id from people where age between {20 + i % 3} "
            f"and {25 + i % 3}"
        )
        stream.append(
            "select p.age, q.weight from people p, pets q "
            f"where p.person_id = q.owner_id and q.weight > {30 + i}"
        )
        if i % 2 == 0:
            stream.append(
                "select city, count(*) from people "
                f"where height > {180 + i} group by city"
            )
        if i % 5 == 4:
            stream.append(
                f"update people set age = {i} where person_id = {i + 1}"
            )
    return stream


def expand(stream: list[str]) -> tuple[Workload, dict[str, float]]:
    """The weight-1 expansion of the stream's SELECTs, plus the DML
    statements' per-table rates (one unit per statement, like the
    compressor's own aggregation)."""
    queries = []
    rates: dict[str, float] = {}
    for i, sql in enumerate(stream):
        head = sql.split(None, 1)[0].lower()
        if head == "select":
            queries.append(Query(name=f"s{i}", sql=sql))
        elif head in ("update", "insert", "delete"):
            table = sql.split()[1]
            rates[table] = rates.get(table, 0.0) + 1.0
    return Workload(queries=queries, name="expanded"), rates


def packed(result) -> tuple:
    """Every float and structural field of a recommendation, with the
    floats rendered as exact IEEE-754 bytes."""
    floats = [result.cost_before, result.cost_after, result.maintenance_cost]
    for q in result.per_query:
        floats.extend([q.cost_before, q.cost_after])
    return (
        b"".join(struct.pack("<d", value) for value in floats),
        [(ix.table_name, ix.columns) for ix in result.indexes],
        [(q.name, tuple(q.indexes_used)) for q in result.per_query],
        result.size_pages,
    )


class TestCompressStatements:
    def test_folds_stream_onto_templates(self):
        stream = people_stream()
        res = compress_statements(stream)
        assert res.statements_in == len(stream)
        # 4 SELECT shapes regardless of literal variation.
        assert res.templates == 4
        assert res.select_statements + res.dml_statements == len(stream)
        assert res.ratio > 2.0

    def test_weights_are_occurrence_counts(self):
        res = compress_statements(people_stream(rounds=12))
        by_sql_head = {q.sql.split()[1]: q.weight for q in res.workload}
        assert by_sql_head["age"] == 12.0  # point query every round
        assert by_sql_head["city,"] == 6.0  # group-by every other round
        assert res.workload.total_weight == res.select_statements

    def test_representative_is_first_occurrence(self):
        res = compress_statements(people_stream())
        point = next(q for q in res.workload if q.sql.startswith("select age"))
        assert point.sql == "select age from people where person_id = 40"

    def test_dml_aggregates_into_update_rates(self):
        res = compress_statements(people_stream(rounds=12))
        assert res.workload.update_rates == {"people": 2.0}
        assert res.dml_statements == 2

    def test_untemplatable_statements_skipped_not_fatal(self):
        res = compress_statements(["select age from people", "$$$ nope"])
        assert res.templates == 1
        assert res.skipped == 1
        assert res.skipped_reasons

    def test_malformed_number_skipped_not_fatal(self):
        # Used to tokenize, then die with ValueError in the once-per-
        # template parse.
        res = compress_statements(
            ["select age from people where age < 1e",
             "select age from people where age < 10"]
        )
        assert res.skipped == 1
        assert "malformed number" in res.skipped_reasons["statement#1"]
        assert [q.sql for q in res.workload] == [
            "select age from people where age < 10"
        ]

    def test_unparseable_select_shape_held(self):
        # Templates fine, full parser rejects: counted skipped, advisable
        # workload stays clean.
        res = compress_statements(
            ["select age from people", "select 1 frum people"]
        )
        assert res.templates == 1
        assert res.skipped == 1

    def test_memo_scans_each_shape_once_whatever_the_literals(self, monkeypatch):
        # 2 000 statements over five shapes, and no literal value repeats:
        # the fingerprint memo is keyed by shape, not by text.
        values = itertools.count(1000)
        stream = []
        for _ in range(400):
            n = [next(values) for _ in range(6)]
            stream += [
                f"select age from people where person_id = {n[0]}",
                f"select person_id from people where age between {n[1]}.{n[2]} "
                f"and {n[3]}e2",
                f"select city from people where name = 'x{n[4]}''s'",
                "select p.age from people p, pets q "
                f"where p.person_id = q.owner_id and q.weight > .{n[5]}",
                f"update people set age = {n[0]} where person_id = {n[1]};",
            ]
        monitor._shape_fingerprint.cache_clear()
        folded = compress_statements(stream)
        assert folded.statements_in == 2000
        assert folded.templates == 4 and folded.dml_statements == 400
        info = monitor._shape_fingerprint.cache_info()
        assert (info.misses, info.hits) == (5, 1995)
        # The same fold with every statement scanned in full.
        monkeypatch.setattr(
            monitor, "_shape_fingerprint", monitor._shape_fingerprint.__wrapped__
        )
        unmemoized = compress_statements(stream)
        assert folded.workload == unmemoized.workload
        assert folded.workload.update_rates == {"people": 400.0}


class TestFoldWorkload:
    def test_fold_expansion_matches_compressor(self):
        stream = people_stream()
        cres = compress_statements(stream)
        expanded, rates = expand(stream)
        expanded = Workload(
            queries=expanded.queries, name="expanded", update_rates=rates
        )
        folded = fold_workload(expanded)
        # Same templates, same representative SQL, and the SAME float in
        # every weight: both sides accumulated + 1.0 in stream order.
        assert [q.name for q in folded] == [
            q.name for q in fold_workload(cres.workload)
        ]
        assert [q.sql for q in folded] == [q.sql for q in cres.workload]
        assert [
            struct.pack("<d", q.weight) for q in folded
        ] == [struct.pack("<d", q.weight) for q in cres.workload]
        assert folded.update_rates == cres.workload.update_rates

    def test_fold_is_idempotent(self):
        stream = people_stream()
        expanded, _ = expand(stream)
        once = fold_workload(expanded)
        twice = fold_workload(once)
        assert once.queries == twice.queries
        assert once.update_rates == twice.update_rates

    def test_workload_compress_method_delegates(self):
        expanded, _ = expand(people_stream())
        assert expanded.compress().queries == fold_workload(expanded).queries
        assert expanded.compress(name="x").name == "x"

    def test_fold_strips_trailing_semicolons(self):
        wl = Workload(queries=[Query("a", "select age from people;")])
        assert fold_workload(wl).queries[0].sql == "select age from people"


class TestBitIdentity:
    """Scale-mode recommend on a compressed stream vs its expansion."""

    BUDGET = 200

    def recommend(self, db, workload, rates):
        advisor = IlpIndexAdvisor(db.catalog, compress=True)
        return advisor.recommend(
            workload, self.BUDGET, update_rates=rates or None
        )

    def test_compressed_equals_expanded(self, db):
        stream = people_stream()
        cres = compress_statements(stream)
        expanded, _ = expand(stream)
        r_compressed = self.recommend(db, cres.workload, None)
        r_expanded = self.recommend(db, expanded, None)
        assert packed(r_compressed) == packed(r_expanded)
        assert r_expanded.queries_folded == len(expanded) - len(cres.workload)
        assert r_compressed.queries_folded == 0

    def test_compressed_equals_expanded_with_update_rates(self, db):
        stream = people_stream()
        cres = compress_statements(stream)
        expanded, rates = expand(stream)
        assert rates  # the stream must exercise the maintenance model
        r_compressed = self.recommend(db, cres.workload, rates)
        r_expanded = self.recommend(db, expanded, rates)
        assert packed(r_compressed) == packed(r_expanded)

    def test_advisor_input_tracks_shapes_not_statements(self, db):
        # Ten times the statements: every weight and DML rate scales by
        # exactly 10, and nothing the advisor builds (templates,
        # candidate pool, per-query ILP blocks) grows with the stream.
        stream = people_stream()
        once = compress_statements(stream)
        tenfold = compress_statements(stream * 10)
        assert tenfold.statements_in == 10 * once.statements_in
        assert tenfold.dml_statements == 10 * once.dml_statements
        assert tenfold.templates == once.templates
        assert [(q.name, q.sql, q.weight) for q in tenfold.workload] == [
            (q.name, q.sql, 10 * q.weight) for q in once.workload
        ]
        r_once = self.recommend(db, once.workload, once.workload.update_rates)
        r_tenfold = self.recommend(
            db, tenfold.workload, tenfold.workload.update_rates
        )
        assert r_tenfold.candidates_considered == r_once.candidates_considered
        assert len(r_tenfold.per_query) == len(r_once.per_query) == once.templates

    def test_scale_mode_result_is_sane(self, db):
        stream = people_stream()
        cres = compress_statements(stream)
        result = self.recommend(db, cres.workload, None)
        assert result.solver_status in ("optimal", "feasible")
        assert result.size_pages <= self.BUDGET
        assert result.cost_after <= result.cost_before
        assert result.candidates_pruned >= 0
        assert "compress" in result.phase_seconds

    def test_scale_mode_close_to_exact(self, db):
        # Scale mode only folds: on an already-folded workload it builds
        # the program plain advise builds, prunes the same candidates
        # and solves the same way, so the answers agree to the byte.
        folded = fold_workload(compress_statements(people_stream()).workload)
        exact = IlpIndexAdvisor(db.catalog).recommend(folded, self.BUDGET)
        scaled = self.recommend(db, folded, None)
        assert scaled.queries_folded == 0
        assert scaled.candidates_pruned == exact.candidates_pruned
        assert packed(scaled) == packed(exact)


class TestAdvisorKnobValidation:
    def test_solver_deadline_degrades_to_greedy_or_changes_nothing(self):
        catalog = build_sdss_database(photo_rows=2000, seed=42).catalog
        budget = 400

        def advise(deadline):
            advisor = IlpIndexAdvisor(
                catalog, compress=True, solver_deadline=deadline
            )
            return advisor.recommend(sdss_workload(), budget)

        # A deadline that expires before the first node: no exception,
        # one recorded fallback, a design that still fits the budget.
        expired = advise(1e-9)
        assert expired.solver_status == "greedy-fallback"
        assert [
            d.action for d in expired.degraded if d.point == "solver.iterate"
        ] == ["fallback"]
        assert expired.size_pages <= budget
        # A deadline the solve never reaches must not move the result.
        exact, roomy = advise(None), advise(20.0)
        assert roomy.solver_status == exact.solver_status == "optimal"
        assert roomy.solver_nodes == exact.solver_nodes
        assert not any(d.point == "solver.iterate" for d in roomy.degraded)
        assert packed(roomy) == packed(exact)


class TestSolverDifferential:
    """The built-in MILP against HiGHS on a folded thousand-statement
    stream with writes (maintenance in the objective), where the
    built-in search takes more than one node."""

    @staticmethod
    def sdss_stream(cycles: int) -> list[str]:
        """The 30 survey shapes ``cycles`` times over, float literals
        nudged per cycle, one ``UPDATE photoobj`` per 11 statements."""
        stream: list[str] = []
        for cycle in range(cycles):
            for query in sdss_workload():
                tokens = [
                    Token(t.type, repr(float(t.value) + cycle * 1e-6), t.position)
                    if t.type is TokenType.NUMBER and "." in t.value
                    else t
                    for t in tokenize(query.sql)
                ]
                stream.append(render_statement(tokens))
                if len(stream) % 11 == 0:
                    stream.append(
                        f"UPDATE photoobj SET status = {cycle % 3} "
                        f"WHERE objid = {1000 + len(stream)}"
                    )
        return stream

    def test_builtin_agrees_with_highs_on_a_folded_stream(self, monkeypatch):
        catalog = build_sdss_database(photo_rows=2000, seed=42).catalog
        stream = self.sdss_stream(cycles=34)
        folded = compress_statements(stream)
        assert len(stream) >= 1000 and folded.templates == 30
        assert folded.workload.update_rates["photoobj"] > 0
        budget = 120

        def advise():
            advisor = IlpIndexAdvisor(catalog, compress=True)
            return advisor.recommend(
                folded.workload, budget,
                update_rates=folded.workload.update_rates,
            )

        builtin = advise()
        monkeypatch.setattr(ilp_advisor, "BranchAndBoundSolver", HighsSolver)
        highs = advise()
        assert builtin.solver_status == highs.solver_status == "optimal"
        assert builtin.solver_nodes > 1  # a real search, not a root-LP hit
        assert builtin.maintenance_cost > 0
        assert builtin.cost_after == pytest.approx(highs.cost_after, rel=1e-9)
        assert builtin.size_pages <= budget and highs.size_pages <= budget
