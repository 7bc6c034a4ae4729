"""A PostgreSQL-like scalar type system with on-disk widths and alignment.

PARINDA's Equation 1 sizes a hypothetical index from per-column value
sizes *plus alignment padding*, so the type system must know, for every
type, its storage width (``typlen``; ``None`` marks variable-length
"varlena" types) and its alignment requirement (``typalign``: 1, 2, 4,
or 8 bytes), mirroring ``pg_type``.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class DataType:
    """A scalar SQL data type.

    Attributes:
        name: SQL-facing type name, e.g. ``"integer"``.
        typlen: Fixed on-disk width in bytes, or ``None`` for
            variable-length types (text, varchar, numeric).
        typalign: Required alignment in bytes (1, 2, 4, or 8).
        is_numeric: Whether values order and subtract like numbers
            (used by histogram interpolation in selectivity estimation).
        max_length: Declared length limit for ``varchar(n)``/``char(n)``.
    """

    name: str
    typlen: int | None
    typalign: int
    is_numeric: bool = False
    max_length: int | None = None
    # Default width assumed for variable-length columns before ANALYZE has
    # measured an actual average width (PostgreSQL's get_typavgwidth uses 32).
    default_width: int = field(default=0)

    def __post_init__(self) -> None:
        if self.typalign not in (1, 2, 4, 8):
            raise ValueError(f"invalid typalign {self.typalign} for {self.name}")
        if self.typlen is not None and self.default_width == 0:
            object.__setattr__(self, "default_width", self.typlen)
        elif self.typlen is None and self.default_width == 0:
            object.__setattr__(self, "default_width", 32)

    @property
    def is_varlena(self) -> bool:
        """True for variable-length types that carry a length header."""
        return self.typlen is None

    def value_width(self, value: Any) -> int:
        """On-disk width of one value of this type, excluding alignment.

        Variable-length values pay a 1- or 4-byte varlena header like
        PostgreSQL's short/long varlena formats.
        """
        if value is None:
            return 0
        if self.typlen is not None:
            return self.typlen
        payload = len(str(value).encode("utf-8"))
        header = 1 if payload < 127 else 4
        return header + payload

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.max_length is not None:
            return f"{self.name}({self.max_length})"
        return self.name


BOOLEAN = DataType("boolean", typlen=1, typalign=1)
SMALLINT = DataType("smallint", typlen=2, typalign=2, is_numeric=True)
INTEGER = DataType("integer", typlen=4, typalign=4, is_numeric=True)
BIGINT = DataType("bigint", typlen=8, typalign=8, is_numeric=True)
REAL = DataType("real", typlen=4, typalign=4, is_numeric=True)
DOUBLE = DataType("double precision", typlen=8, typalign=8, is_numeric=True)
DATE = DataType("date", typlen=4, typalign=4, is_numeric=True)
TIMESTAMP = DataType("timestamp", typlen=8, typalign=8, is_numeric=True)
TEXT = DataType("text", typlen=None, typalign=4)

_FIXED_TYPES = {
    t.name: t
    for t in (BOOLEAN, SMALLINT, INTEGER, BIGINT, REAL, DOUBLE, DATE, TIMESTAMP, TEXT)
}
_TYPE_ALIASES = {
    "int": INTEGER,
    "int2": SMALLINT,
    "int4": INTEGER,
    "int8": BIGINT,
    "float4": REAL,
    "float8": DOUBLE,
    "float": DOUBLE,
    "bool": BOOLEAN,
    "double": DOUBLE,
}


def varchar(n: int) -> DataType:
    """A ``varchar(n)`` type; average width defaults to ``min(n, 32)``."""
    if n <= 0:
        raise ValueError("varchar length must be positive")
    return DataType(
        "varchar", typlen=None, typalign=4, max_length=n, default_width=min(n, 32) + 1
    )


def char(n: int) -> DataType:
    """A blank-padded ``char(n)`` type; width is always ``n`` plus header."""
    if n <= 0:
        raise ValueError("char length must be positive")
    return DataType("char", typlen=None, typalign=4, max_length=n, default_width=n + 1)


def type_from_name(name: str, length: int | None = None) -> DataType:
    """Resolve a SQL type name (as written in DDL) to a :class:`DataType`."""
    key = name.strip().lower()
    if key in ("varchar", "character varying"):
        return varchar(length if length is not None else 256)
    if key in ("char", "character"):
        return char(length if length is not None else 1)
    if key in _FIXED_TYPES:
        return _FIXED_TYPES[key]
    if key in _TYPE_ALIASES:
        return _TYPE_ALIASES[key]
    raise ValueError(f"unknown SQL type: {name!r}")


def align_up(offset: int, alignment: int) -> int:
    """Round ``offset`` up to the next multiple of ``alignment``."""
    if alignment <= 1:
        return offset
    return (offset + alignment - 1) // alignment * alignment


_NAIVE_EPOCH = datetime.datetime(1970, 1, 1)
_UTC_EPOCH = _NAIVE_EPOCH.replace(tzinfo=datetime.timezone.utc)


def to_comparable(value: Any) -> Any:
    """Map a Python value to a totally-ordered comparable for histograms.

    Dates and timestamps become ordinal numbers so numeric interpolation
    works; strings stay strings (interpolated positionally). A naive
    timestamp is seconds since a naive epoch, defined for every year and
    independent of the local time zone (``datetime.timestamp`` is
    neither); an aware one is seconds since the UTC epoch.
    """
    if isinstance(value, datetime.datetime):
        epoch = _NAIVE_EPOCH if value.tzinfo is None else _UTC_EPOCH
        return (value - epoch).total_seconds()
    if isinstance(value, datetime.date):
        return value.toordinal()
    if isinstance(value, bool):
        return int(value)
    return value


def numeric_fraction(value: Any, low: Any, high: Any) -> float:
    """Fractional position of ``value`` within ``[low, high]``.

    Used for histogram-bin interpolation: numbers interpolate linearly,
    strings interpolate by comparing the first differing characters, and
    anything incomparable falls back to 0.5 (PostgreSQL behaves the same
    way in ``convert_to_scalar``).
    """
    value = to_comparable(value)
    low = to_comparable(low)
    high = to_comparable(high)
    if isinstance(value, (int, float)) and isinstance(low, (int, float)):
        span = float(high) - float(low)
        if span <= 0 or math.isnan(span):
            return 0.5
        frac = (float(value) - float(low)) / span
        return min(1.0, max(0.0, frac))
    if isinstance(value, str) and isinstance(low, str) and isinstance(high, str):
        return _string_fraction(value, low, high)
    return 0.5


def _string_fraction(value: str, low: str, high: str) -> float:
    """Positional interpolation of a string between two bound strings."""
    if low >= high:
        return 0.5
    if value <= low:
        return 0.0
    if value >= high:
        return 1.0
    v = _string_to_float(value)
    lo = _string_to_float(low)
    hi = _string_to_float(high)
    if hi <= lo:
        return 0.5
    return min(1.0, max(0.0, (v - lo) / (hi - lo)))


def _string_to_float(s: str, prefix_len: int = 8) -> float:
    """Map a string to a float preserving lexicographic order (approx.)."""
    total = 0.0
    scale = 1.0
    for ch in s[:prefix_len]:
        scale /= 256.0
        total += min(ord(ch), 255) * scale
    return total


Comparator = Callable[[Any, Any], bool]
