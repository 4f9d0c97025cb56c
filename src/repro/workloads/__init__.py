"""Workload generation: the arrival process, request distributions, the
paper's four traffic cases, region profiles, traces, and tenant skew."""

from .arrivals import PoissonArrivals
from .cases import (
    CASE_MIX,
    CASES,
    LOAD_MULTIPLIERS,
    CaseDefinition,
    build_case_workload,
)
from .distributions import FixedFactory, QuantileSampler, RequestFactory
from .generator import ClientStats, TrafficGenerator, WorkloadSpec
from .library import (
    FAMILIES,
    WorkloadFamily,
    build_family_trace,
    family_names,
)
from .regions import REGIONS, RegionProfile
from .skew import (
    PAPER_TOP3_REGION_A,
    PAPER_TOP3_REGION_B,
    top_heavy_weights,
    zipf_weights,
)
from .trace import Trace, TraceEvent, TraceReplayer, build_trace_from_spec

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
    "PoissonArrivals",
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
    "build_case_workload",
    "build_family_trace",
    "build_trace_from_spec",
    "family_names",
    "top_heavy_weights",
    "zipf_weights",
]
