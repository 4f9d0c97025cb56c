"""Analysis helpers: statistics and paper-style reporting."""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".reporting": ("mark_effectiveness", "render_table"),
    ".stats": ("cdf_points", "coefficient_of_variation", "jains_fairness",
               "mean", "normalize", "percentile", "population_sd"),
})
