"""repro — a reproduction of Hermes (SIGCOMM 2025).

Userspace-directed I/O event notification for Layer-7 cloud load balancers,
rebuilt on a discrete-event simulation of the Linux kernel substrate it
extends (epoll, wait queues, SO_REUSEPORT, eBPF socket selection).

Quickstart::

    from repro import NotificationMode, build_cell
    from repro.workloads import build_case_workload

    spec = build_case_workload("case1", "light", n_workers=8, duration=2.0)
    cell = build_cell(spec, NotificationMode.HERMES, seed=7, n_workers=8)
    cell.run(until=3.0)
    print(cell.server.metrics.summary())
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "Cell",
    "Environment",
    "FlightRecorder",
    "HermesConfig",
    "LBServer",
    "NotificationMode",
    "RngRegistry",
    "ServiceProfile",
    "Tracer",
    "__version__",
    "build_cell",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cell": ("Cell", "build_cell"),
    ".core": ("HermesConfig",),
    ".lb": ("LBServer", "NotificationMode", "ServiceProfile"),
    ".obs": ("FlightRecorder", "Tracer"),
    ".sim": ("Environment", "RngRegistry"),
})
