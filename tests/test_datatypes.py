"""Unit tests for the type system: widths, alignment, interpolation."""

import datetime
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog.datatypes import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTEGER,
    SMALLINT,
    TEXT,
    align_up,
    char,
    numeric_fraction,
    to_comparable,
    type_from_name,
    varchar,
)


class TestFixedTypes:
    def test_widths(self):
        assert BOOLEAN.typlen == 1
        assert SMALLINT.typlen == 2
        assert INTEGER.typlen == 4
        assert BIGINT.typlen == 8
        assert DOUBLE.typlen == 8

    def test_alignment_matches_width_for_scalars(self):
        assert INTEGER.typalign == 4
        assert BIGINT.typalign == 8
        assert SMALLINT.typalign == 2

    def test_fixed_value_width_ignores_value(self):
        assert INTEGER.value_width(7) == 4
        assert INTEGER.value_width(7_000_000) == 4

    def test_null_width_is_zero(self):
        assert INTEGER.value_width(None) == 0
        assert TEXT.value_width(None) == 0

    def test_default_width_defaults_to_typlen(self):
        assert INTEGER.default_width == 4


class TestVarlena:
    def test_text_is_varlena(self):
        assert TEXT.is_varlena
        assert TEXT.typlen is None

    def test_short_string_width_has_one_byte_header(self):
        assert TEXT.value_width("abc") == 4

    def test_long_string_width_has_four_byte_header(self):
        value = "x" * 200
        assert TEXT.value_width(value) == 204

    def test_utf8_width(self):
        assert TEXT.value_width("é") == 1 + 2

    def test_varchar_default_width_capped(self):
        assert varchar(8).default_width == 9
        assert varchar(500).default_width == 33

    def test_varchar_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            varchar(0)

    def test_char_width_is_declared_length(self):
        assert char(10).default_width == 11

    def test_char_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            char(-1)


class TestTypeFromName:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("integer", INTEGER),
            ("INT", INTEGER),
            ("int4", INTEGER),
            ("bigint", BIGINT),
            ("int8", BIGINT),
            ("double precision", DOUBLE),
            ("float8", DOUBLE),
            ("bool", BOOLEAN),
        ],
    )
    def test_aliases(self, name, expected):
        assert type_from_name(name) is expected

    def test_varchar_with_length(self):
        t = type_from_name("varchar", 12)
        assert t.max_length == 12

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError):
            type_from_name("geometry")


class TestAlignUp:
    @pytest.mark.parametrize(
        "offset,alignment,expected",
        [(0, 4, 0), (1, 4, 4), (4, 4, 4), (5, 8, 8), (9, 2, 10), (7, 1, 7)],
    )
    def test_cases(self, offset, alignment, expected):
        assert align_up(offset, alignment) == expected

    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 4, 8]))
    def test_properties(self, offset, alignment):
        result = align_up(offset, alignment)
        assert result >= offset
        assert result % alignment == 0
        assert result - offset < alignment


class TestNumericFraction:
    def test_midpoint(self):
        assert numeric_fraction(5, 0, 10) == pytest.approx(0.5)

    def test_clamped_below_and_above(self):
        assert numeric_fraction(-1, 0, 10) == 0.0
        assert numeric_fraction(11, 0, 10) == 1.0

    def test_degenerate_range(self):
        assert numeric_fraction(5, 5, 5) == 0.5

    def test_string_interpolation_ordered(self):
        low = numeric_fraction("b", "a", "z")
        high = numeric_fraction("y", "a", "z")
        assert 0.0 <= low < high <= 1.0

    def test_string_outside_bounds(self):
        assert numeric_fraction("a", "b", "y") == 0.0
        assert numeric_fraction("z", "b", "y") == 1.0

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_always_in_unit_interval(self, value, low, high):
        assert 0.0 <= numeric_fraction(value, low, high) <= 1.0

    def test_incomparable_defaults_to_half(self):
        assert numeric_fraction("abc", 0, 10) == 0.5


class TestToComparable:
    def test_timestamp_range_ends(self):
        # datetime.timestamp() raises on year 1 east of UTC.
        assert to_comparable(datetime.datetime.min) == -62135596800.0
        assert to_comparable(datetime.datetime.max) == 253402300799.999999
        assert to_comparable(datetime.datetime(1970, 1, 1)) == 0.0

    def test_independent_of_local_time_zone(self, monkeypatch):
        value = datetime.datetime(2009, 3, 14, 15, 9, 26)
        seen = set()
        for zone in ("UTC", "Asia/Kolkata", "America/Los_Angeles"):
            monkeypatch.setenv("TZ", zone)
            time.tzset()
            seen.add(to_comparable(value))
        monkeypatch.undo()
        time.tzset()
        assert seen == {1237043366.0}

    def test_aware_timestamp_is_utc_seconds(self):
        utc = datetime.datetime(2009, 3, 14, 15, 9, 26, tzinfo=datetime.timezone.utc)
        east = utc.astimezone(datetime.timezone(datetime.timedelta(hours=5)))
        assert to_comparable(east) == to_comparable(utc) == utc.timestamp()

    @given(st.datetimes(), st.datetimes())
    def test_preserves_timestamp_order(self, a, b):
        if a <= b:
            assert to_comparable(a) <= to_comparable(b)
        else:
            assert to_comparable(a) >= to_comparable(b)

    @given(st.dates(), st.dates())
    def test_preserves_date_order(self, a, b):
        assert (a < b) == (to_comparable(a) < to_comparable(b))
