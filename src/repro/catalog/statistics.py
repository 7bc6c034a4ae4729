"""ANALYZE-style statistics: the optimizer's only view of the data.

PARINDA's central trick is that "the query optimizer primarily deals
with statistics, [so] it cannot differentiate between the real design
features and the what-if ones". This module computes exactly the
statistics PostgreSQL's ANALYZE stores in ``pg_statistic`` /
``pg_class``: per-table row and page counts, and per-column null
fraction, average width, n_distinct, most-common values (MCVs),
equi-depth histogram bounds, and physical correlation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Sequence

from repro.catalog.datatypes import DataType, to_comparable
from repro.catalog.schema import Table
from repro.errors import StatisticsError

# PostgreSQL's default_statistics_target: number of MCVs and histogram bins.
DEFAULT_STATISTICS_TARGET = 100


@dataclass(frozen=True)
class TableStats:
    """Relation-level statistics (``pg_class.reltuples`` / ``relpages``)."""

    row_count: float
    page_count: int

    def __post_init__(self) -> None:
        if self.row_count < 0 or self.page_count < 0:
            raise StatisticsError("table statistics must be non-negative")

    def scaled(self, row_factor: float, page_factor: float | None = None) -> "TableStats":
        """Statistics for a what-if table derived from this one."""
        if page_factor is None:
            page_factor = row_factor
        return TableStats(
            row_count=self.row_count * row_factor,
            page_count=max(1, int(math.ceil(self.page_count * page_factor))),
        )


@dataclass(frozen=True)
class ColumnStats:
    """Column-level statistics mirroring one ``pg_statistic`` row.

    Attributes:
        null_frac: Fraction of rows that are NULL.
        avg_width: Average on-disk width of non-null values, in bytes.
        n_distinct: Number of distinct values; negative values are
            PostgreSQL's convention for "-(distinct/row) ratio", used when
            distincts scale with table size.
        mcv_values / mcv_freqs: Most-common values and their frequencies.
        histogram: Equi-depth histogram bounds over values *not* in the
            MCV list (ascending). ``len(histogram) - 1`` bins.
        correlation: Pearson correlation between value order and physical
            row order in [-1, 1]; drives index-scan cost interpolation.
    """

    null_frac: float = 0.0
    avg_width: int = 4
    n_distinct: float = -1.0
    mcv_values: tuple[Any, ...] = ()
    mcv_freqs: tuple[float, ...] = ()
    histogram: tuple[Any, ...] = ()
    correlation: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.null_frac <= 1.0:
            raise StatisticsError(f"null_frac {self.null_frac} outside [0, 1]")
        if len(self.mcv_values) != len(self.mcv_freqs):
            raise StatisticsError("MCV values and frequencies differ in length")
        if not -1.0 <= self.correlation <= 1.0:
            raise StatisticsError(f"correlation {self.correlation} outside [-1, 1]")

    def distinct_values(self, row_count: float) -> float:
        """Resolve ``n_distinct`` to an absolute count for ``row_count`` rows."""
        if self.n_distinct >= 0:
            return max(1.0, self.n_distinct)
        return max(1.0, -self.n_distinct * row_count)

    @property
    def mcv_total_freq(self) -> float:
        return float(sum(self.mcv_freqs))

    @cached_property
    def histogram_comparables(self) -> tuple[Any, ...]:
        """The histogram bounds as totally-ordered comparables, computed
        once per object: what inequality estimation bisects into."""
        return tuple(to_comparable(bound) for bound in self.histogram)

    def scaled(self, row_factor: float) -> "ColumnStats":
        """Statistics for a derived table with ``row_factor`` times the rows.

        Value distribution is assumed unchanged (fractions carry over);
        only absolute distinct counts are capped by the new row count.
        """
        n_distinct = self.n_distinct
        if n_distinct >= 0:
            n_distinct = min(n_distinct, max(1.0, n_distinct * max(row_factor, 1e-9)))
        return replace(self, n_distinct=n_distinct)


def analyze_column(
    dtype: DataType,
    values: Sequence[Any],
    target: int = DEFAULT_STATISTICS_TARGET,
) -> ColumnStats:
    """Compute :class:`ColumnStats` from a full column of values.

    Unlike PostgreSQL we scan all rows rather than a sample — tables in
    this substrate are small enough, and exact statistics remove one
    source of noise when validating what-if estimates against real
    executions.
    """
    total = len(values)
    if total == 0:
        return ColumnStats(null_frac=0.0, avg_width=dtype.default_width, n_distinct=0.0)

    non_null = [v for v in values if v is not None]
    null_frac = 1.0 - len(non_null) / total
    if not non_null:
        return ColumnStats(
            null_frac=1.0, avg_width=dtype.default_width, n_distinct=0.0
        )

    if dtype.typlen is not None:
        avg_width = dtype.typlen
    else:
        sampled = non_null if len(non_null) <= 10000 else non_null[:: len(non_null) // 10000]
        avg_width = max(1, round(sum(dtype.value_width(v) for v in sampled) / len(sampled)))

    counts = Counter(non_null)
    distinct = len(counts)

    # PostgreSQL stores a negative n_distinct when the column looks like a
    # key (distincts scale with rows): every value distinct, or nearly so.
    # The negated value is the multiplier applied to the *total* row count
    # (including NULLs), matching pg_statistic.stadistinct.
    if distinct > 0.9 * len(non_null):
        n_distinct: float = -distinct / total
    else:
        n_distinct = float(distinct)

    # MCV list: values noticeably more frequent than average, following
    # ANALYZE's "more common than 1.25x the mean frequency" rule.
    mcv_values: tuple[Any, ...] = ()
    mcv_freqs: tuple[float, ...] = ()
    if distinct <= target:
        # Few enough distinct values: store them all, no histogram needed.
        items = counts.most_common()
        mcv_values = tuple(v for v, _ in items)
        mcv_freqs = tuple(c / total for _, c in items)
        histogram: tuple[Any, ...] = ()
    else:
        mean_freq = len(non_null) / distinct
        common = [
            (v, c) for v, c in counts.most_common(target) if c > 1.25 * mean_freq
        ]
        mcv_values = tuple(v for v, _ in common)
        mcv_freqs = tuple(c / total for _, c in common)
        mcv_set = set(mcv_values)
        rest = sorted((v for v in non_null if v not in mcv_set), key=to_comparable)
        histogram = _equi_depth_bounds(rest, target)

    correlation = _physical_correlation(values)
    return ColumnStats(
        null_frac=null_frac,
        avg_width=avg_width,
        n_distinct=n_distinct,
        mcv_values=mcv_values,
        mcv_freqs=mcv_freqs,
        histogram=histogram,
        correlation=correlation,
    )


def _equi_depth_bounds(sorted_values: list[Any], target: int) -> tuple[Any, ...]:
    """Equi-depth histogram bounds: ``target`` bins → ``target + 1`` bounds."""
    n = len(sorted_values)
    if n < 2:
        return ()
    bins = min(target, n - 1)
    bounds = [
        sorted_values[round(i * (n - 1) / bins)] for i in range(bins + 1)
    ]
    return tuple(bounds)


def _physical_correlation(values: Sequence[Any], sample_cap: int = 5000) -> float:
    """Pearson correlation between value rank and physical position."""
    comparable = [
        (pos, to_comparable(v)) for pos, v in enumerate(values) if v is not None
    ]
    if len(comparable) < 2:
        return 0.0
    if len(comparable) > sample_cap:
        step = len(comparable) / sample_cap
        comparable = [comparable[int(i * step)] for i in range(sample_cap)]
    try:
        order = sorted(range(len(comparable)), key=lambda i: comparable[i][1])
    except TypeError:
        return 0.0
    ranks = [0] * len(comparable)
    for rank, idx in enumerate(order):
        ranks[idx] = rank
    n = len(ranks)
    positions = list(range(n))
    mean = (n - 1) / 2.0
    cov = sum((positions[i] - mean) * (ranks[i] - mean) for i in range(n))
    var = sum((p - mean) ** 2 for p in positions)
    if var == 0:
        return 0.0
    corr = cov / var
    return max(-1.0, min(1.0, corr))


@dataclass
class RelationStatistics:
    """All statistics for one relation: table-level plus per-column."""

    table: TableStats
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        if name not in self.columns:
            raise StatisticsError(f"no statistics for column {name!r}")
        return self.columns[name]

    def has_column(self, name: str) -> bool:
        return name in self.columns


def analyze_table(
    table: Table,
    rows: dict[str, Sequence[Any]],
    page_count: int,
    target: int = DEFAULT_STATISTICS_TARGET,
) -> RelationStatistics:
    """Analyze a whole table given column-major data.

    Args:
        table: Schema of the table.
        rows: Mapping from column name to the full sequence of values.
        page_count: Heap pages the data occupies (from the storage layer).
        target: Statistics target (MCV/histogram size).
    """
    lengths = {len(v) for v in rows.values()}
    if len(lengths) > 1:
        raise StatisticsError("ragged column data passed to analyze_table")
    row_count = float(lengths.pop()) if lengths else 0.0

    column_stats: dict[str, ColumnStats] = {}
    for column in table.columns:
        if column.name not in rows:
            raise StatisticsError(
                f"analyze_table missing data for column {column.name!r}"
            )
        column_stats[column.name] = analyze_column(
            column.dtype, rows[column.name], target=target
        )
    return RelationStatistics(
        table=TableStats(row_count=row_count, page_count=page_count),
        columns=column_stats,
    )
