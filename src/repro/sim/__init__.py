"""Discrete-event simulation substrate.

The engine (:mod:`repro.sim.engine`) is a SimPy-style coroutine kernel; the
kernel/LB/workload layers are all built as processes on top of it.
"""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    TimedWait,
    Timeout,
)
from .monitor import BusyTracker, PeriodicSampler, Samples, TimeWeighted
from .rng import RngRegistry, Stream

__all__ = [
    "AllOf",
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
