"""The pre-bisect linear histogram scan, kept as a test oracle.

Moved here verbatim from ``repro.optimizer.selectivity`` when
``_fraction_below`` began bisecting the comparable bounds cached on
``ColumnStats``; ``test_selectivity.py`` checks the two agree. It walks
every bin and converts both bounds each time, sharing nothing with the
code under test but the datatype helpers and the fallback constant.
"""

from __future__ import annotations

from typing import Any

from repro.catalog.datatypes import numeric_fraction, to_comparable
from repro.optimizer.selectivity import DEFAULT_INEQ_SEL, clamp


def reference_fraction_below(
    hist: tuple[Any, ...], value: Any, inclusive: bool
) -> float:
    """Fraction of the histogram population strictly below ``value``
    (or ``<=`` when inclusive)."""
    bins = len(hist) - 1
    comparable = to_comparable(value)
    try:
        if comparable <= to_comparable(hist[0]):
            if inclusive and comparable == to_comparable(hist[0]):
                return 1.0 / (2.0 * bins)  # half of the first bin's edge mass
            return 0.0
        if comparable >= to_comparable(hist[-1]):
            return 1.0
    except TypeError:
        return DEFAULT_INEQ_SEL
    # Find the bin containing value.
    for i in range(bins):
        low, high = hist[i], hist[i + 1]
        try:
            in_bin = to_comparable(low) <= comparable <= to_comparable(high)
        except TypeError:
            return DEFAULT_INEQ_SEL
        if in_bin:
            frac_in_bin = numeric_fraction(value, low, high)
            return clamp((i + frac_in_bin) / bins)
    return DEFAULT_INEQ_SEL
