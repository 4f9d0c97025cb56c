"""Cluster layer: canary releases, autoscaling, shuffle sharding."""

from .autoscale import AutoscaleModel, UnitCostPoint, unit_cost_series
from .canary import CanaryRelease
from .sharding import ShuffleShardedFleet, TenantPlacement, VMGroup

__all__ = [
    "AutoscaleModel",
    "CanaryRelease",
    "ShuffleShardedFleet",
    "TenantPlacement",
    "UnitCostPoint",
    "VMGroup",
    "unit_cost_series",
]
