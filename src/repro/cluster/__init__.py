"""Cluster layer: canary releases and autoscaling."""

from .._lazy import lazy_exports

__all__ = [
    "AutoscaleModel",
    "CanaryRelease",
    "UnitCostPoint",
    "unit_cost_series",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".autoscale": ("AutoscaleModel", "UnitCostPoint", "unit_cost_series"),
    ".canary": ("CanaryRelease",),
})
