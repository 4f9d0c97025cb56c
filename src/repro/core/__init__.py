"""Hermes core: the paper's primary contribution.

Userspace-directed I/O event notification — the Worker Status Table, the
cascading scheduler (Algorithm 1), the eBPF dispatch program (Algorithm 2),
map emulation, worker grouping, and overhead accounting.
"""

from .bitmap import (
    WORD_BITS,
    bit_clear,
    bit_set,
    bit_test,
    bitmap_from_ids,
    find_nth_set_bit,
    ids_from_bitmap,
    popcount64,
)
from .config import HermesConfig, OverheadCosts
from .degradation import ServiceDegrader
from .dispatch import HermesDispatchProgram
from .ebpf import BpfArrayMap, BpfError, ReuseportSockArray
from .groups import GroupedDispatchProgram, HermesGroup, build_groups
from .overhead import ComponentOverhead, compute_overhead
from .scheduler import CascadingScheduler, ScheduleResult
from .wst import WorkerStatusTable, WstSnapshot

__all__ = [
    "BpfArrayMap",
    "BpfError",
    "CascadingScheduler",
    "ComponentOverhead",
    "GroupedDispatchProgram",
    "HermesConfig",
    "HermesDispatchProgram",
    "HermesGroup",
    "OverheadCosts",
    "ReuseportSockArray",
    "ScheduleResult",
    "ServiceDegrader",
    "WORD_BITS",
    "WorkerStatusTable",
    "WstSnapshot",
    "bit_clear",
    "bit_set",
    "bit_test",
    "bitmap_from_ids",
    "build_groups",
    "compute_overhead",
    "find_nth_set_bit",
    "ids_from_bitmap",
    "popcount64",
]
