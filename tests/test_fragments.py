"""Attribute-usage and atomic-fragment tests."""

import pytest

from repro.catalog.datatypes import DOUBLE, INTEGER
from repro.catalog.schema import make_table
from repro.partitioning.fragments import (
    atomic_fragments,
    attribute_usage,
    co_accessed,
    fragment_with_pk,
)
from repro.workloads.workload import Query, Workload

from tests.conftest import make_people_db


@pytest.fixture(scope="module")
def db():
    return make_people_db(rows=200, seed=37)


class TestAttributeUsage:
    def test_collects_per_query(self, db):
        workload = Workload(
            queries=[
                Query("qa", "select age from people where height > 1"),
                Query("qb", "select age, city from people"),
            ]
        )
        usage = attribute_usage({q.name: q.bind(db.catalog) for q in workload})
        people = usage["people"]
        assert people["age"] == frozenset({"qa", "qb"})
        assert people["height"] == frozenset({"qa"})
        assert people["city"] == frozenset({"qb"})
        assert "nickname" not in people

    def test_merges_aliases(self, db):
        workload = Workload(
            queries=[
                Query("self", "select a.age from people a, people b "
                              "where a.person_id = b.person_id and b.height > 1"),
            ]
        )
        usage = attribute_usage({q.name: q.bind(db.catalog) for q in workload})
        assert usage["people"]["age"] == frozenset({"self"})
        assert usage["people"]["height"] == frozenset({"self"})


class TestAtomicFragments:
    def table(self):
        return make_table(
            "w",
            [("id", INTEGER), ("a", DOUBLE), ("b", DOUBLE), ("c", DOUBLE),
             ("d", DOUBLE)],
            primary_key="id",
        )

    def test_identical_usage_groups_together(self):
        usage = {
            "a": frozenset({"q1"}),
            "b": frozenset({"q1"}),
            "c": frozenset({"q2"}),
        }
        frags = atomic_fragments(self.table(), usage)
        assert ("a", "b") in frags
        assert ("c",) in frags

    def test_cold_columns_form_one_fragment(self):
        usage = {"a": frozenset({"q1"})}
        frags = atomic_fragments(self.table(), usage)
        assert frags[-1] == ("id", "b", "c", "d")

    def test_every_column_covered_exactly_once(self):
        usage = {
            "a": frozenset({"q1"}),
            "b": frozenset({"q1", "q2"}),
            "id": frozenset({"q2"}),
        }
        frags = atomic_fragments(self.table(), usage)
        flat = [c for f in frags for c in f]
        assert sorted(flat) == sorted(self.table().column_names)

    def test_fragment_with_pk(self):
        assert fragment_with_pk(self.table(), ("b", "a")) == ("id", "b", "a")
        assert fragment_with_pk(self.table(), ("id", "a")) == ("id", "a")


class TestCoAccessed:
    def test_shared_query(self):
        usage = {
            "a": frozenset({"q1"}),
            "b": frozenset({"q1", "q2"}),
            "c": frozenset({"q3"}),
        }
        assert co_accessed(("a",), ("b",), usage)
        assert not co_accessed(("a",), ("c",), usage)

    def test_unused_columns_never_co_accessed(self):
        usage = {"a": frozenset({"q1"})}
        assert not co_accessed(("a",), ("zzz",), usage)
