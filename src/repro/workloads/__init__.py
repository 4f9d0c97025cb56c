"""Workload generation: the client driver, request distributions, the
paper's four traffic cases, region profiles, traces, and tenant skew."""

from .._lazy import lazy_exports

__all__ = [
    "CASE_MIX",
    "CASES",
    "CaseDefinition",
    "ClientStats",
    "FAMILIES",
    "FixedFactory",
    "LOAD_MULTIPLIERS",
    "PAPER_TOP3_REGION_A",
    "PAPER_TOP3_REGION_B",
    "QuantileSampler",
    "REGIONS",
    "RegionProfile",
    "RequestFactory",
    "Trace",
    "TraceEvent",
    "TraceReplayer",
    "TrafficGenerator",
    "WorkloadFamily",
    "WorkloadSpec",
    "arrivals",
    "build_case_workload",
    "build_family_trace",
    "family_names",
    "top_heavy_weights",
    "zipf_weights",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cases": ("CASE_MIX", "CASES", "LOAD_MULTIPLIERS", "CaseDefinition",
               "build_case_workload"),
    ".distributions": ("FixedFactory", "QuantileSampler", "RequestFactory"),
    ".generator": ("ClientStats", "TrafficGenerator", "WorkloadSpec",
                   "arrivals"),
    ".library": ("FAMILIES", "WorkloadFamily", "build_family_trace",
                 "family_names"),
    ".regions": ("REGIONS", "RegionProfile"),
    ".skew": ("PAPER_TOP3_REGION_A", "PAPER_TOP3_REGION_B",
              "top_heavy_weights", "zipf_weights"),
    ".trace": ("Trace", "TraceEvent", "TraceReplayer"),
})
