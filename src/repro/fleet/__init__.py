"""repro.fleet — an LB fleet behind an ingress tier (cluster-of-clusters).

The production shape of §6: an L4/ECMP ingress spraying flows over N
full LB instances, with connection -> backend resolution as a pluggable
policy (stateful table vs Concury-style stateless version-stamped
lookup) and per-connection consistency (PCC) as the correctness bar
under instance failover and backend churn.
"""

from .fleet import (Fleet, FlowRecord, aggregate_metrics, build_fleet,
                    check_churn, fleet_faults, fleet_instance)
from .ingress import (INGRESS_POLICIES, ConsistentHashRing, EcmpIngress,
                      make_ingress)
from .lookup import (BackendMap, FleetPolicy, StatefulLookup,
                     StatelessLookup, make_lookup)

__all__ = [
    "Fleet",
    "FlowRecord",
    "aggregate_metrics",
    "build_fleet",
    "check_churn",
    "fleet_faults",
    "fleet_instance",
    "EcmpIngress",
    "ConsistentHashRing",
    "make_ingress",
    "INGRESS_POLICIES",
    "BackendMap",
    "FleetPolicy",
    "StatefulLookup",
    "StatelessLookup",
    "make_lookup",
]
