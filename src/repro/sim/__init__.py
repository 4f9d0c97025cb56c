"""Discrete-event simulation substrate.

The engine (:mod:`repro.sim.engine`) is a SimPy-style coroutine kernel; the
kernel/LB/workload layers are all built as processes on top of it.
"""

from .._lazy import lazy_exports

__all__ = [
    "AnyOf",
    "BusyTracker",
    "Environment",
    "Event",
    "Interrupt",
    "PeriodicSampler",
    "Process",
    "RngRegistry",
    "Samples",
    "SimulationError",
    "Stream",
    "TimeWeighted",
    "TimedWait",
    "Timeout",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("AnyOf", "Environment", "Event", "Interrupt", "Process",
                "SimulationError", "TimedWait", "Timeout"),
    ".monitor": ("BusyTracker", "PeriodicSampler", "Samples", "TimeWeighted"),
    ".rng": ("RngRegistry", "Stream"),
})
