"""Selectivity estimation accuracy against known data distributions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.datatypes import INTEGER, DOUBLE, to_comparable, varchar
from repro.catalog.schema import make_table
from repro.catalog.statistics import ColumnStats
from repro.optimizer.config import PlannerConfig, default_relation_info
from repro.optimizer.selectivity import (
    _histogram_fraction,
    clamp,
    equijoin_selectivity,
    eq_selectivity,
    estimate_distinct,
    ineq_selectivity,
    range_selectivity,
    restriction_selectivity,
)
from repro.sql.binder import bind
from repro.sql.parser import parse_select
from repro.storage.database import Database

from tests.reference_selectivity import reference_fraction_below


def build_db(rows: int = 10_000, seed: int = 1) -> Database:
    rng = random.Random(seed)
    db = Database()
    db.create_table(
        make_table(
            "d",
            [
                ("id", INTEGER),
                ("uniform", DOUBLE),
                ("skewed", INTEGER),
                ("label", varchar(8)),
                ("maybe", DOUBLE),
            ],
            primary_key="id",
        ),
        {
            "id": list(range(rows)),
            "uniform": [rng.uniform(0, 100) for _ in range(rows)],
            "skewed": [1 if rng.random() < 0.6 else rng.randint(2, 500) for _ in range(rows)],
            "label": [rng.choice(["aa", "ab", "bb", "zq"]) for _ in range(rows)],
            "maybe": [None if rng.random() < 0.25 else 1.0 for _ in range(rows)],
        },
    )
    return db


@pytest.fixture(scope="module")
def db():
    return build_db()


@pytest.fixture(scope="module")
def rel(db):
    return default_relation_info(PlannerConfig(), db.catalog, "d")


def true_fraction(db, predicate) -> float:
    heap = db.relation("d").heap
    n = heap.row_count
    return sum(1 for i in range(n) if predicate(heap.row(i))) / n


def estimated(db, rel, condition: str) -> float:
    query = bind(db.catalog, parse_select(f"select id from d where {condition}"))
    sel = 1.0
    for qual in query.quals:
        sel *= restriction_selectivity(rel, qual)
    return clamp(sel)


class TestEquality:
    def test_mcv_hit(self, db, rel):
        actual = true_fraction(db, lambda r: r["skewed"] == 1)
        est = estimated(db, rel, "skewed = 1")
        assert est == pytest.approx(actual, rel=0.05)

    def test_non_mcv_value(self, db, rel):
        est = estimated(db, rel, "skewed = 77")
        actual = true_fraction(db, lambda r: r["skewed"] == 77)
        assert est < 0.02
        assert abs(est - actual) < 0.01

    def test_unique_key(self, db, rel):
        est = estimated(db, rel, "id = 5000")
        assert est == pytest.approx(1.0 / 10_000, rel=0.2)

    def test_null_constant_selects_nothing(self, rel):
        stats = rel.stats_for("uniform")
        assert eq_selectivity(stats, rel.row_count, None) == 0.0


class TestInequalitiesAndRanges:
    @pytest.mark.parametrize("cutoff", [10, 25, 50, 90])
    def test_less_than(self, db, rel, cutoff):
        est = estimated(db, rel, f"uniform < {cutoff}")
        actual = true_fraction(db, lambda r: r["uniform"] < cutoff)
        assert est == pytest.approx(actual, abs=0.03)

    def test_greater_than_complements(self, rel):
        stats = rel.stats_for("uniform")
        below = ineq_selectivity(stats, "<", 30.0)
        above = ineq_selectivity(stats, ">", 30.0)
        assert below + above == pytest.approx(1.0, abs=0.02)

    def test_between(self, db, rel):
        est = estimated(db, rel, "uniform between 20 and 40")
        actual = true_fraction(db, lambda r: 20 <= r["uniform"] <= 40)
        assert est == pytest.approx(actual, abs=0.03)

    def test_empty_range_floor(self, rel):
        stats = rel.stats_for("uniform")
        assert range_selectivity(stats, 50.0, 50.0) >= 1.0e-6

    def test_out_of_bounds(self, rel):
        stats = rel.stats_for("uniform")
        assert ineq_selectivity(stats, "<", -5.0) <= 1e-4
        assert ineq_selectivity(stats, "<", 500.0) >= 0.999


# Histogram bounds come sorted out of ANALYZE, all of one domain; the
# probed value is whatever the query's literal was — of that domain
# (a bound itself, between bounds, out of range) or of another one.
_DOMAINS = [
    st.integers(-50, 50),
    st.floats(-1e6, 1e6),
    st.integers(-50, 50) | st.floats(-50, 50),  # bigint bounds, double literal
    st.dates(),
    st.datetimes(),
    st.booleans(),
    st.text(alphabet="abcz", max_size=4),
]
_ANY_VALUE = st.one_of(*_DOMAINS, st.floats(allow_nan=True))


@st.composite
def _histogram_and_value(draw):
    domain = draw(st.sampled_from(_DOMAINS))
    bounds = sorted(draw(st.lists(domain, min_size=2, max_size=12)), key=to_comparable)
    if draw(st.booleans()):  # duplicate bounds: a run of equal values
        bounds = sorted(bounds + bounds[:3], key=to_comparable)
    value = draw(st.sampled_from(bounds) | domain | _ANY_VALUE)
    return tuple(bounds), value


class TestHistogramLookupMatchesLinearScan:
    """The bisected lookup against the linear scan it replaced: the same
    bin, interpolation and fallbacks, bit for bit, for all four
    operators (``<`` / ``<=`` are the lookup itself, ``>`` / ``>=`` its
    complement at the other inclusiveness)."""

    @settings(max_examples=500, deadline=None)
    @given(case=_histogram_and_value())
    def test_equal_on_generated_histograms(self, case):
        hist, value = case
        stats = ColumnStats(histogram=hist)
        strictly = reference_fraction_below(hist, value, inclusive=False)
        at_or_below = reference_fraction_below(hist, value, inclusive=True)
        assert _histogram_fraction(stats, "<", value) == strictly
        assert _histogram_fraction(stats, "<=", value) == at_or_below
        assert _histogram_fraction(stats, ">", value) == clamp(1.0 - at_or_below)
        assert _histogram_fraction(stats, ">=", value) == clamp(1.0 - strictly)


class TestOtherPredicates:
    def test_in_list_sums(self, db, rel):
        est = estimated(db, rel, "label in ('aa', 'bb')")
        actual = true_fraction(db, lambda r: r["label"] in ("aa", "bb"))
        assert est == pytest.approx(actual, rel=0.1)

    def test_like_prefix(self, db, rel):
        est = estimated(db, rel, "label like 'a%'")
        actual = true_fraction(db, lambda r: r["label"].startswith("a"))
        assert est == pytest.approx(actual, rel=0.25)

    def test_is_null_uses_null_frac(self, db, rel):
        est = estimated(db, rel, "maybe is null")
        assert est == pytest.approx(0.25, abs=0.02)
        est_not = estimated(db, rel, "maybe is not null")
        assert est_not == pytest.approx(0.75, abs=0.02)

    def test_or_combination(self, db, rel):
        est = estimated(db, rel, "skewed = 1 or uniform < 10")
        actual = true_fraction(
            db, lambda r: r["skewed"] == 1 or r["uniform"] < 10
        )
        assert est == pytest.approx(actual, abs=0.05)

    def test_not(self, db, rel):
        est = estimated(db, rel, "not skewed = 1")
        actual = true_fraction(db, lambda r: r["skewed"] != 1)
        assert est == pytest.approx(actual, abs=0.05)

    def test_and_independence(self, db, rel):
        est = estimated(db, rel, "uniform < 50 and skewed = 1")
        assert est == pytest.approx(0.5 * 0.6, abs=0.08)


class TestJoinSelectivity:
    def test_fk_join(self, db, rel):
        sel = equijoin_selectivity(rel, "id", rel, "skewed")
        # id has 10k distincts -> 1/10k-ish
        assert sel == pytest.approx(1.0 / 10_000, rel=0.3)

    def test_estimate_distinct_full(self, rel):
        assert estimate_distinct(rel, "id") == pytest.approx(10_000, rel=0.01)

    def test_estimate_distinct_filtered_shrinks(self, rel):
        full = estimate_distinct(rel, "skewed")
        filtered = estimate_distinct(rel, "skewed", rows=100)
        assert filtered < full
        assert filtered >= 1.0
