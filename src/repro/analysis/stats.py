"""Small statistics helpers used by experiments and reports."""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; NaN for an empty sequence."""
    if not values:
        return float("nan")
    return sum(values) / len(values)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of pre-sorted data.

    ``fraction`` is in [0, 1]. NaN for empty data.
    """
    if not sorted_values:
        return float("nan")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return sorted_values[lower]
    weight = position - lower
    return sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight


def median(values: Sequence[float]) -> float:
    return percentile(sorted(values), 0.5)
