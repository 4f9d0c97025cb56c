"""Statistical helpers shared by experiments and reports."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .._sum import left_sum

__all__ = [
    "percentile",
    "cdf_points",
    "mean",
    "population_sd",
    "coefficient_of_variation",
    "normalize",
    "jains_fairness",
]


def mean(values: Sequence[float]) -> float:
    values = list(values)
    return left_sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of raw samples, ``p`` in [0, 100]."""
    data = sorted(values)
    if not data:
        return 0.0
    if not 0 <= p <= 100:
        raise ValueError(f"p must be in [0, 100], got {p}")
    if len(data) == 1:
        return data[0]
    rank = (p / 100) * (len(data) - 1)
    low, high = int(math.floor(rank)), int(math.ceil(rank))
    if low == high:
        return data[low]
    frac = rank - low
    # Clamp to the bracketing samples: the weighted sum can underflow
    # below data[low] when both neighbours are subnormal.
    value = data[low] * (1 - frac) + data[high] * frac
    return min(max(value, data[low]), data[high])


def cdf_points(values: Sequence[float],
               max_points: int = 200) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs for CDF figures."""
    data = sorted(values)
    n = len(data)
    if n == 0:
        return []
    step = max(1, n // max_points)
    points = [(data[i], (i + 1) / n) for i in range(0, n, step)]
    if points[-1] != (data[-1], 1.0):
        points.append((data[-1], 1.0))
    return points


def population_sd(values: Sequence[float]) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(left_sum((v - m) ** 2 for v in values) / len(values))


def coefficient_of_variation(values: Sequence[float]) -> float:
    m = mean(values)
    return population_sd(values) / m if m else 0.0


def normalize(values: Sequence[float]) -> List[float]:
    """Scale so the first element is 1.0 (Fig. 12's normalization)."""
    values = list(values)
    if not values:
        return []
    base = values[0]
    if base == 0:
        raise ValueError("cannot normalize by a zero first element")
    return [v / base for v in values]


def jains_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hot spot."""
    values = list(values)
    if not values:
        return 1.0
    total = left_sum(values)
    squares = left_sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)
