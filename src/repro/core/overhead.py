"""Hermes component overhead accounting (Table 5).

The paper measures per-component CPU utilization with perf flame graphs:
Counter (atomic shm updates), Scheduler (filter arithmetic), System call
(eBPF map updates), and Dispatcher (the in-kernel program).  Every simulated
component already counts its operations; this module turns those counts into
CPU-utilization fractions over a measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .._sum import left_sum
from .config import OverheadCosts
from .dispatch import HermesDispatchProgram
from .ebpf import BpfArrayMap
from .scheduler import CascadingScheduler
from .wst import WorkerStatusTable

__all__ = ["ComponentOverhead", "compute_overhead"]


@dataclass(frozen=True)
class ComponentOverhead:
    """CPU-utilization fractions per component (1.0 == one full core-second
    per elapsed core-second across the device)."""

    counter: float
    scheduler: float
    syscall: float
    dispatcher: float

    @property
    def userspace(self) -> float:
        return self.counter + self.scheduler + self.syscall

    @property
    def total(self) -> float:
        return self.userspace + self.dispatcher

    def as_percentages(self) -> dict:
        return {
            "counter": self.counter * 100,
            "scheduler": self.scheduler * 100,
            "syscall": self.syscall * 100,
            "dispatcher": self.dispatcher * 100,
            "total": self.total * 100,
        }


def compute_overhead(wsts: Iterable[WorkerStatusTable],
                     schedulers: Iterable[CascadingScheduler],
                     sel_maps: Iterable[BpfArrayMap],
                     programs: Iterable[HermesDispatchProgram],
                     elapsed: float, n_cores: int,
                     costs: OverheadCosts) -> ComponentOverhead:
    """Aggregate operation counts into device-wide utilization fractions.

    ``elapsed * n_cores`` is the available CPU budget of the window; each
    component's consumed CPU time is (operation count × per-op cost).
    """
    if elapsed <= 0 or n_cores < 1:
        raise ValueError("need positive elapsed time and at least one core")
    budget = elapsed * n_cores

    counter_time = sum(w.update_ops for w in wsts) * costs.counter_update
    scheduler_time = left_sum(
        s.calls * s.scheduler_cost_per_call for s in schedulers)
    syscall_time = sum(
        m.user_updates for m in sel_maps) * costs.map_update_syscall
    dispatch_time = sum(
        p.invocations for p in programs) * costs.ebpf_dispatch

    return ComponentOverhead(
        counter=counter_time / budget,
        scheduler=scheduler_time / budget,
        syscall=syscall_time / budget,
        dispatcher=dispatch_time / budget,
    )
