"""The L7 load-balancer application layer."""

from .._lazy import lazy_exports

__all__ = [
    "ArchitectureSpec",
    "BackendPool",
    "BackendServer",
    "DeviceMetrics",
    "DispatcherWorker",
    "HermesBinding",
    "LBServer",
    "ModeOptions",
    "NotificationMode",
    "get_mode",
    "iter_modes",
    "mode_names",
    "register_mode",
    "ProbeReport",
    "Prober",
    "ServiceProfile",
    "Tenant",
    "TenantDirectory",
    "Worker",
    "WorkerMetrics",
    "WorkerState",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".backend": ("BackendPool", "BackendServer"),
    ".dispatcher": ("DispatcherWorker",),
    ".metrics": ("DeviceMetrics", "WorkerMetrics"),
    ".modes": ("ArchitectureSpec", "ModeOptions", "get_mode", "iter_modes",
               "mode_names", "register_mode"),
    ".probes": ("ProbeReport", "Prober"),
    ".server": ("LBServer", "NotificationMode"),
    ".tenant": ("Tenant", "TenantDirectory"),
    ".worker": ("HermesBinding", "ServiceProfile", "Worker", "WorkerState"),
})
