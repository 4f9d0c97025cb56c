"""repro.fleet — an LB fleet behind an ingress tier (cluster-of-clusters).

The production shape of §6: an L4/ECMP ingress spraying flows over N
full LB instances, with connection -> backend resolution as a pluggable
policy (stateful table vs Concury-style stateless version-stamped
lookup) and per-connection consistency (PCC) as the correctness bar
under instance failover and backend churn.
"""

from .._lazy import lazy_exports

__all__ = [
    "Fleet",
    "FleetRun",
    "FlowRecord",
    "aggregate_metrics",
    "build_fleet",
    "check_churn",
    "fleet_faults",
    "fleet_instance",
    "fleet_spec",
    "run_fleet",
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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".fleet": ("Fleet", "FleetRun", "FlowRecord", "aggregate_metrics",
               "build_fleet", "check_churn", "fleet_faults",
               "fleet_instance", "fleet_spec", "run_fleet"),
    ".ingress": ("INGRESS_POLICIES", "ConsistentHashRing", "EcmpIngress",
                 "make_ingress"),
    ".lookup": ("BackendMap", "FleetPolicy", "StatefulLookup",
                "StatelessLookup", "make_lookup"),
})
