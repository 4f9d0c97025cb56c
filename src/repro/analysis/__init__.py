"""Analysis helpers: statistics and paper-style reporting."""

from .reporting import mark_effectiveness, render_table
from .stats import (
    cdf_points,
    coefficient_of_variation,
    jains_fairness,
    mean,
    normalize,
    percentile,
    population_sd,
)

__all__ = [
    "cdf_points",
    "coefficient_of_variation",
    "jains_fairness",
    "mark_effectiveness",
    "mean",
    "normalize",
    "percentile",
    "population_sd",
    "render_table",
]
