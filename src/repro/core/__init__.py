"""Hermes core: the paper's primary contribution.

Userspace-directed I/O event notification — the Worker Status Table, the
cascading scheduler (Algorithm 1), the eBPF dispatch program (Algorithm 2),
map emulation, worker grouping, and overhead accounting.
"""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bitmap": ("WORD_BITS", "bit_clear", "bit_set", "bit_test",
                "bitmap_from_ids", "find_nth_set_bit", "ids_from_bitmap",
                "popcount64"),
    ".config": ("HermesConfig", "OverheadCosts"),
    ".degradation": ("ServiceDegrader",),
    ".dispatch": ("HermesDispatchProgram",),
    ".ebpf": ("BpfArrayMap", "BpfError", "ReuseportSockArray"),
    ".groups": ("GroupedDispatchProgram", "HermesGroup", "build_groups"),
    ".overhead": ("ComponentOverhead", "compute_overhead"),
    ".scheduler": ("CascadingScheduler", "ScheduleResult"),
    ".wst": ("WorkerStatusTable", "WstSnapshot"),
})
