"""Candidate index generation tests."""

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advisor.candidates import (
    MAX_COVERING_WIDTH,
    CandidateIndex,
    generate_candidates,
    prune_dominated,
)
from repro.errors import AdvisorError
from repro.workloads.workload import Query, Workload

from tests.conftest import make_people_db
from tests.reference import prune_dominated_pairwise


@pytest.fixture(scope="module")
def db():
    return make_people_db(rows=500, seed=23)


def candidates_for(db, *sqls, **kwargs):
    workload = Workload.from_sql(list(sqls))
    return generate_candidates(db.catalog, workload, **kwargs)


class TestGeneration:
    def test_single_column_from_eq(self, db):
        cands = candidates_for(db, "select height from people where age = 30")
        assert any(c.index.columns == ("age",) for c in cands)

    def test_eq_plus_range_composite(self, db):
        cands = candidates_for(
            db, "select person_id from people where city = 'oslo' and age > 50"
        )
        assert any(c.index.columns == ("city", "age") for c in cands)

    def test_join_column_candidates(self, db):
        cands = candidates_for(
            db,
            "select p.age from people p, pets q where p.person_id = q.owner_id",
        )
        tables = {(c.index.table_name, c.index.columns) for c in cands}
        assert ("people", ("person_id",)) in tables
        assert ("pets", ("owner_id",)) in tables

    def test_order_by_column_candidate(self, db):
        cands = candidates_for(db, "select age from people order by height")
        assert any(c.index.columns[0] == "height" for c in cands)

    def test_covering_candidate(self, db):
        cands = candidates_for(
            db, "select height from people where age between 1 and 2"
        )
        assert any(
            set(c.index.columns) == {"age", "height"} and c.index.columns[0] == "age"
            for c in cands
        )

    def test_dedupe_across_queries(self, db):
        cands = candidates_for(
            db,
            "select person_id from people where age = 1",
            "select height from people where age = 2",
        )
        age_only = [c for c in cands if c.index.columns == ("age",)]
        assert len(age_only) == 1

    def test_all_hypothetical_with_sizes(self, db):
        cands = candidates_for(db, "select person_id from people where age = 1")
        assert all(c.index.hypothetical for c in cands)
        assert all(c.size_pages >= 1 for c in cands)

    def test_unique_names(self, db):
        cands = candidates_for(
            db,
            "select p.age from people p, pets q "
            "where p.person_id = q.owner_id and q.weight > 5 and p.city = 'lima'",
        )
        names = [c.name for c in cands]
        assert len(names) == len(set(names))


class TestKnobs:
    def test_single_column_only(self, db):
        cands = candidates_for(
            db,
            "select person_id from people where city = 'oslo' and age > 50",
            single_column_only=True,
        )
        assert all(len(c.index.columns) == 1 for c in cands)

    def test_max_width_respected(self, db):
        # Four referenced columns: the covering candidate is the widest.
        cands = candidates_for(
            db,
            "select person_id from people "
            "where city = 'oslo' and age = 5 and height > 150",
        )
        widths = [len(c.index.columns) for c in cands]
        assert max(widths) == MAX_COVERING_WIDTH == 4
        assert sorted(widths)[-2] <= 3
        # Five are too many to cover: key candidates stop at two
        # equality columns and a range column.
        cands = candidates_for(
            db,
            "select person_id from people "
            "where city = 'oslo' and age = 5 and height > 150 and nickname = 'n'",
        )
        assert max(len(c.index.columns) for c in cands) == 3

    def test_per_table_cap(self, db):
        cands = candidates_for(
            db,
            "select person_id from people "
            "where city = 'oslo' and age = 5 and height > 150 and nickname = 'n'",
            max_per_table=3,
        )
        assert len([c for c in cands if c.index.table_name == "people"]) <= 3

    def test_empty_workload_rejected(self, db):
        with pytest.raises(AdvisorError):
            generate_candidates(db.catalog, Workload(queries=[]))


def _cand(name, table, columns, size_pages):
    from repro.catalog.schema import Index

    return CandidateIndex(
        index=Index(
            name=name, table_name=table, columns=columns, hypothetical=True
        ),
        size_pages=size_pages,
    )


class TestDominancePruning:
    """prune_dominated: drop candidates a same-table sibling beats
    pointwise on benefit, size, and maintenance."""

    def test_strictly_dominated_dropped(self):
        cands = [
            _cand("big", "people", ("age", "city"), 50),
            _cand("small", "people", ("age",), 10),
        ]
        # "small" saves at least as much on every query and is smaller.
        savings = np.array([[3.0, 3.0], [1.0, 2.0]])
        kept = prune_dominated(cands, savings, [0.0, 0.0])
        assert kept == [1]

    def test_incomparable_pair_both_kept(self):
        cands = [
            _cand("a", "people", ("age",), 10),
            _cand("b", "people", ("city",), 10),
        ]
        savings = np.array([[5.0, 1.0], [1.0, 5.0]])  # each wins a query
        assert prune_dominated(cands, savings, [0.0, 0.0]) == [0, 1]

    def test_exact_duplicates_tie_break_to_lowest_position(self):
        cands = [
            _cand("first", "people", ("age",), 10),
            _cand("second", "people", ("age", "city"), 10),
        ]
        savings = np.array([[2.0, 2.0]])
        assert prune_dominated(cands, savings, [0.5, 0.5]) == [0]

    def test_cross_table_never_prunes(self):
        # Pointwise dominated, but on a different table: the swap
        # argument fails (the dominator may already hold its own
        # table's access-path slot), so both must survive.
        cands = [
            _cand("p", "people", ("age",), 10),
            _cand("q", "pets", ("weight",), 50),
        ]
        savings = np.array([[5.0, 1.0]])
        assert prune_dominated(cands, savings, [0.0, 0.0]) == [0, 1]

    def test_maintenance_blocks_domination(self):
        # a saves more but costs more to maintain; b the reverse.
        # Neither dominates: both survive.
        cands = [
            _cand("a", "people", ("age",), 10),
            _cand("b", "people", ("city",), 10),
        ]
        savings = np.array([[2.0, 1.5]])
        assert prune_dominated(cands, savings, [1.0, 0.0]) == [0, 1]
        # Equal savings and size, cheaper maintenance: a dominates b.
        equal = np.array([[2.0, 2.0]])
        assert prune_dominated(cands, equal, [0.0, 1.0]) == [0]

    def test_transitive_chain_keeps_minimal_element(self):
        cands = [
            _cand("a", "people", ("age",), 10),
            _cand("b", "people", ("age", "city"), 20),
            _cand("c", "people", ("age", "city", "height"), 30),
        ]
        savings = np.array([[3.0, 2.0, 1.0]])
        assert prune_dominated(cands, savings, [0.0, 0.0, 0.0]) == [0]

    def test_shape_mismatch_raises(self):
        cands = [_cand("a", "people", ("age",), 10)]
        with pytest.raises(AdvisorError):
            prune_dominated(cands, np.zeros((1, 2)), [0.0])
        with pytest.raises(AdvisorError):
            prune_dominated(cands, np.zeros((1, 1)), [0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_the_pairwise_loop(self, data):
        # Few distinct values, so ties in savings, size and upkeep are
        # common: the tie-break and the transitive chains both run.
        n = data.draw(st.integers(1, 9))
        queries = data.draw(st.integers(0, 4))
        cands = [
            _cand(
                f"c{i}", data.draw(st.sampled_from(("people", "pets"))),
                ("age",), data.draw(st.integers(1, 3)),
            )
            for i in range(n)
        ]
        savings = np.array(
            data.draw(st.lists(
                st.lists(st.sampled_from((0.0, 1.0, 2.0)), min_size=n, max_size=n),
                min_size=queries, max_size=queries,
            )),
            dtype=float,
        ).reshape(queries, n)
        upkeep = data.draw(st.lists(
            st.sampled_from((0.0, 0.5)), min_size=n, max_size=n
        ))
        assert prune_dominated(cands, savings, upkeep) == (
            prune_dominated_pairwise(cands, savings, upkeep)
        )
