"""Clause selectivity estimation from ANALYZE statistics.

Implements PostgreSQL's estimators: ``eqsel`` (MCV hit, else uniform
over the non-MCV remainder), ``scalarineqsel`` (MCV partial sums plus
equi-depth-histogram interpolation), range and prefix-LIKE estimation,
``IN`` as a disjunction of equalities, NULL-fraction handling, and
Kleene combinations for AND/OR/NOT. Join selectivity follows
``eqjoinsel``'s 1/max(nd1, nd2) rule with null-fraction correction.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

from repro.catalog.datatypes import numeric_fraction, to_comparable
from repro.catalog.statistics import ColumnStats
from repro.optimizer.clauses import (
    classify,
    like_prefix,
    prefix_upper_bound,
)
from repro.optimizer.config import RelationInfo
from repro.sql.ast_nodes import (
    BetweenExpr,
    BinaryOp,
    ColumnRef,
    Expr,
    InExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    UnaryOp,
)

# PostgreSQL's fallback selectivities (selfuncs.h).
DEFAULT_EQ_SEL = 0.005
DEFAULT_INEQ_SEL = 1.0 / 3.0
DEFAULT_RANGE_INEQ_SEL = 0.005
DEFAULT_MATCH_SEL = 0.005
DEFAULT_NUM_DISTINCT = 200.0
DEFAULT_UNK_SEL = 0.005

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def clamp(value: float) -> float:
    """Clamp a selectivity into [0, 1]."""
    return min(1.0, max(0.0, value))


def restriction_selectivity(rel: RelationInfo, expr: Expr) -> float:
    """Selectivity of one restriction clause against ``rel``."""
    if isinstance(expr, BinaryOp):
        if expr.op == "and":
            return clamp(
                restriction_selectivity(rel, expr.left)
                * restriction_selectivity(rel, expr.right)
            )
        if expr.op == "or":
            s1 = restriction_selectivity(rel, expr.left)
            s2 = restriction_selectivity(rel, expr.right)
            return clamp(s1 + s2 - s1 * s2)
        return _comparison_selectivity(rel, expr)
    if isinstance(expr, UnaryOp) and expr.op == "not":
        return clamp(1.0 - restriction_selectivity(rel, expr.operand))
    if isinstance(expr, BetweenExpr):
        return _between_selectivity(rel, expr)
    if isinstance(expr, InExpr):
        return _in_selectivity(rel, expr)
    if isinstance(expr, LikeExpr):
        return _like_selectivity(rel, expr)
    if isinstance(expr, IsNullExpr):
        return _isnull_selectivity(rel, expr)
    if isinstance(expr, Literal):
        if expr.value is True:
            return 1.0
        return 0.0
    return 0.5


# ----------------------------------------------------------------------
# Leaf estimators


def _comparison_selectivity(rel: RelationInfo, expr: BinaryOp) -> float:
    column, op, value = _normalize(expr)
    if column is None:
        # col op col within one table, or arithmetic: PostgreSQL falls
        # back to fixed defaults.
        if expr.op == "=":
            return DEFAULT_EQ_SEL
        if expr.op == "<>":
            return 1.0 - DEFAULT_EQ_SEL
        return DEFAULT_INEQ_SEL
    stats = rel.stats_for(column)
    if stats is None:
        return DEFAULT_EQ_SEL if op == "=" else DEFAULT_INEQ_SEL
    if op == "=":
        return eq_selectivity(stats, rel.row_count, value)
    if op == "<>":
        return clamp(
            (1.0 - stats.null_frac) - eq_selectivity(stats, rel.row_count, value)
        )
    return ineq_selectivity(stats, op, value)


def _normalize(expr: BinaryOp) -> tuple[str | None, str, Any]:
    left, right = expr.left, expr.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left.column, expr.op, right.value
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        flipped = _FLIP.get(expr.op, expr.op)
        return right.column, flipped, left.value
    return None, expr.op, None


def eq_selectivity(stats: ColumnStats, row_count: float, value: Any) -> float:
    """``column = const`` following PostgreSQL's ``var_eq_const``."""
    if value is None:
        return 0.0
    if stats.mcv_values:
        for mcv_value, freq in zip(stats.mcv_values, stats.mcv_freqs):
            if mcv_value == value:
                return clamp(freq)
        # Not an MCV: uniform share of what's left.
        remaining_freq = 1.0 - stats.mcv_total_freq - stats.null_frac
        distinct = stats.distinct_values(row_count)
        remaining_distinct = distinct - len(stats.mcv_values)
        if remaining_distinct <= 0:
            return 0.0
        sel = remaining_freq / remaining_distinct
        # Never estimate higher than the least-common MCV (PG's sanity cap).
        if stats.mcv_freqs:
            sel = min(sel, min(stats.mcv_freqs))
        return clamp(sel)
    distinct = stats.distinct_values(row_count)
    if distinct <= 0:
        return DEFAULT_EQ_SEL
    return clamp((1.0 - stats.null_frac) / distinct)


def ineq_selectivity(stats: ColumnStats, op: str, value: Any) -> float:
    """``column < / <= / > / >= const`` via MCVs plus histogram."""
    if value is None:
        return 0.0
    mcv_below = 0.0
    for mcv_value, freq in zip(stats.mcv_values, stats.mcv_freqs):
        if mcv_value is None:
            continue
        if _satisfies(mcv_value, op, value):
            mcv_below += freq

    hist_fraction = _histogram_fraction(stats, op, value)
    non_mcv_freq = clamp(1.0 - stats.mcv_total_freq - stats.null_frac)
    sel = mcv_below + hist_fraction * non_mcv_freq
    # Keep within PostgreSQL's sanity bounds to avoid 0/1 extremes the
    # histogram resolution can't justify.
    return min(1.0, max(1.0e-5, sel))


def _satisfies(candidate: Any, op: str, bound: Any) -> bool:
    candidate = to_comparable(candidate)
    bound = to_comparable(bound)
    try:
        if op == "<":
            return candidate < bound
        if op == "<=":
            return candidate <= bound
        if op == ">":
            return candidate > bound
        if op == ">=":
            return candidate >= bound
    except TypeError:
        return False
    return False


def _histogram_fraction(stats: ColumnStats, op: str, value: Any) -> float:
    """Fraction of histogram-covered values satisfying ``op value``."""
    hist = stats.histogram
    if len(hist) < 2:
        # No histogram: if all distinct values are MCVs the non-MCV
        # remainder is empty, otherwise use PG's default.
        if stats.mcv_values and stats.mcv_total_freq + stats.null_frac >= 0.999:
            return 0.0
        return DEFAULT_INEQ_SEL

    # "<" and ">=" split the population strictly below the value, "<="
    # and ">" at-or-below it; the ">" pair takes the complement.
    below = _fraction_below(stats, value, inclusive=op in ("<=", ">"))
    return below if op in ("<", "<=") else clamp(1.0 - below)


def _fraction_below(stats: ColumnStats, value: Any, inclusive: bool) -> float:
    """Fraction of the histogram population strictly below ``value``
    (or ``<=`` when inclusive).

    Bisects the comparable bounds ``stats`` keeps; the linear scan this
    replaced lives on as the oracle in ``tests/reference_selectivity.py``.
    """
    hist = stats.histogram
    bounds = stats.histogram_comparables
    bins = len(hist) - 1
    comparable = to_comparable(value)
    try:
        if comparable <= bounds[0]:
            if inclusive and comparable == bounds[0]:
                return 1.0 / (2.0 * bins)  # half of the first bin's edge mass
            return 0.0
        if comparable >= bounds[-1]:
            return 1.0
        # The first bin whose upper bound reaches the value.
        i = bisect_left(bounds, comparable) - 1
        in_bin = i >= 0 and bounds[i] <= comparable <= bounds[i + 1]
    except TypeError:
        return DEFAULT_INEQ_SEL
    if not in_bin:  # unordered value (NaN): no bin holds it
        return DEFAULT_INEQ_SEL
    frac_in_bin = numeric_fraction(value, hist[i], hist[i + 1])
    return clamp((i + frac_in_bin) / bins)


def _between_selectivity(rel: RelationInfo, expr: BetweenExpr) -> float:
    if not (
        isinstance(expr.expr, ColumnRef)
        and isinstance(expr.low, Literal)
        and isinstance(expr.high, Literal)
    ):
        return DEFAULT_RANGE_INEQ_SEL
    stats = rel.stats_for(expr.expr.column)
    if stats is None:
        return DEFAULT_RANGE_INEQ_SEL
    sel = range_selectivity(stats, expr.low.value, expr.high.value)
    return clamp(1.0 - sel) if expr.negated else sel


def range_selectivity(stats: ColumnStats, low: Any, high: Any) -> float:
    """``low <= column <= high`` as the difference of two inequalities."""
    if low is None or high is None:
        return 0.0
    upper = ineq_selectivity(stats, "<=", high)
    lower = ineq_selectivity(stats, "<", low)
    sel = upper - lower
    # PG guards against histogram noise making the range negative.
    return min(1.0, max(1.0e-6, sel))


def _in_selectivity(rel: RelationInfo, expr: InExpr) -> float:
    if not isinstance(expr.expr, ColumnRef):
        return DEFAULT_EQ_SEL
    stats = rel.stats_for(expr.expr.column)
    total = 0.0
    for item in expr.items:
        if isinstance(item, Literal):
            if stats is None:
                total += DEFAULT_EQ_SEL
            else:
                total += eq_selectivity(stats, rel.row_count, item.value)
        else:
            total += DEFAULT_EQ_SEL
    sel = clamp(total)
    return clamp(1.0 - sel) if expr.negated else sel


def _like_selectivity(rel: RelationInfo, expr: LikeExpr) -> float:
    if not (isinstance(expr.expr, ColumnRef) and isinstance(expr.pattern, Literal)):
        return DEFAULT_MATCH_SEL
    pattern = str(expr.pattern.value)
    stats = rel.stats_for(expr.expr.column)
    prefix = like_prefix(pattern)
    if stats is None or prefix is None:
        sel = DEFAULT_MATCH_SEL
    else:
        # Prefix range estimate, times a fudge factor for the rest of
        # the pattern (1.0 when the pattern is exactly 'prefix%').
        upper = prefix_upper_bound(prefix)
        sel = range_selectivity(stats, prefix, upper)
        remainder = pattern[len(prefix):]
        if remainder not in ("", "%"):
            sel *= 0.25
        if pattern == prefix:  # no wildcards at all: plain equality
            sel = eq_selectivity(stats, rel.row_count, pattern)
    sel = clamp(sel)
    return clamp(1.0 - sel) if expr.negated else sel


def _isnull_selectivity(rel: RelationInfo, expr: IsNullExpr) -> float:
    if isinstance(expr.expr, ColumnRef):
        stats = rel.stats_for(expr.expr.column)
        if stats is not None:
            sel = stats.null_frac
            return clamp(1.0 - sel) if expr.negated else clamp(sel)
    return 0.005 if not expr.negated else 0.995


# ----------------------------------------------------------------------
# Join selectivity


def equijoin_selectivity(
    left_rel: RelationInfo,
    left_column: str,
    right_rel: RelationInfo,
    right_column: str,
) -> float:
    """``a.x = b.y`` following ``eqjoinsel``'s 1/max(nd1, nd2) rule."""
    left_stats = left_rel.stats_for(left_column)
    right_stats = right_rel.stats_for(right_column)
    nd1 = (
        left_stats.distinct_values(left_rel.row_count)
        if left_stats
        else DEFAULT_NUM_DISTINCT
    )
    nd2 = (
        right_stats.distinct_values(right_rel.row_count)
        if right_stats
        else DEFAULT_NUM_DISTINCT
    )
    null1 = left_stats.null_frac if left_stats else 0.0
    null2 = right_stats.null_frac if right_stats else 0.0
    sel = (1.0 - null1) * (1.0 - null2) / max(nd1, nd2, 1.0)
    return clamp(sel)


def generic_join_selectivity(expr: Expr) -> float:
    """Fallback for non-equi join clauses."""
    info = classify(expr)
    if info.equi_join is not None:
        return DEFAULT_EQ_SEL
    return DEFAULT_INEQ_SEL


def estimate_distinct(
    rel: RelationInfo, column: str, rows: float | None = None
) -> float:
    """Distinct values of ``column`` among ``rows`` rows of ``rel``."""
    stats = rel.stats_for(column)
    base_rows = rel.row_count
    distinct = (
        stats.distinct_values(base_rows) if stats is not None else DEFAULT_NUM_DISTINCT
    )
    if rows is None or rows >= base_rows or base_rows <= 0:
        return distinct
    # Yao's approximation for distincts surviving a uniform row filter.
    if distinct <= 0:
        return 1.0
    survived = distinct * (1.0 - (1.0 - rows / base_rows) ** (base_rows / distinct))
    return max(1.0, min(distinct, survived))
