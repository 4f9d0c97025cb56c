"""Configuration for the Hermes framework.

All tunables the paper discusses live here, with the paper's production
defaults: 5 ms ``epoll_wait`` timeout (§5.3.2), θ/Avg = 0.5 (Fig. 15), the
``n > 1`` kernel fallback threshold (§5.4), 64-worker groups (§7), and the
cascading filter order time → conn → event (§5.2.2).

The overhead block models the CPU cost of each Hermes component so the
simulator can both charge those costs to worker CPU time and regenerate
Table 5.  Magnitudes follow the paper's measurements ("reading data from a
few workers takes only tens of ns"; map updates need a syscall + context
switch; the eBPF dispatcher is a handful of bitwise ops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Tuple

__all__ = ["HermesConfig", "OverheadCosts"]


@dataclass(frozen=True)
class OverheadCosts:
    """Per-operation CPU costs (seconds) of Hermes components."""

    #: One atomic shared-memory counter update (Table 5 "Counter").
    counter_update: float = 25e-9
    #: Reading one worker's WST column during a scheduler scan.
    wst_read_per_worker: float = 20e-9
    #: Filter arithmetic per worker per scheduler run (Table 5 "Scheduler").
    scheduler_per_worker: float = 40e-9
    #: One bpf() map-update system call incl. context switch ("System call").
    map_update_syscall: float = 1.5e-6
    #: One in-kernel eBPF dispatch program run ("Dispatcher").
    ebpf_dispatch: float = 100e-9

    def __post_init__(self):
        # A negative or NaN cost would never be charged (workers charge
        # only a positive pending total), so refuse it instead.
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{f.name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class HermesConfig:
    """Tunables of the closed-loop notification framework."""

    #: Worker considered hung when its loop-entry timestamp is older than
    #: this (FilterTime threshold in Algorithm 1).
    hang_threshold: float = 0.050
    #: θ/Avg: the offset ratio added to the average in FilterCount.
    #: Fig. 15 finds 0.5 optimal.
    theta_ratio: float = 0.5
    #: Kernel falls back to plain reuseport hashing when fewer than this
    #: many workers passed the coarse filter (Algorithm 2 checks n > 1).
    min_workers: int = 2
    #: epoll_wait() timeout — bounds the scheduling interval (§5.3.2).
    epoll_timeout: float = 0.005
    #: epoll_wait() batch size.
    max_events: int = 64
    #: Cascading filter order (§5.2.2). Ablations permute this.
    filter_order: Tuple[str, ...] = ("time", "conn", "event")
    #: Workers per group for two-level selection (§7: 64-bit atomic word).
    group_size: int = 64
    #: Charge component costs to worker CPU time inside the simulation
    #: (set False to measure pure scheduling quality).
    charge_overhead: bool = True
    #: Component cost model.
    costs: OverheadCosts = field(default_factory=OverheadCosts)

    def __post_init__(self):
        if self.hang_threshold <= 0:
            raise ValueError("hang_threshold must be positive")
        if self.theta_ratio < 0:
            raise ValueError("theta_ratio must be >= 0")
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.epoll_timeout <= 0:
            raise ValueError("epoll_timeout must be positive")
        if self.max_events < 1:
            # epoll_wait(2) refuses maxevents <= 0 with EINVAL; the loop
            # would otherwise never harvest an event.
            raise ValueError(
                f"max_events must be >= 1, got {self.max_events}")
        if not 1 <= self.group_size <= 64:
            raise ValueError("group_size must be in [1, 64]")
        valid = {"time", "conn", "event", "capacity"}
        if set(self.filter_order) - valid:
            raise ValueError(f"filter_order entries must be in {valid}")

    def with_overrides(self, **kwargs) -> "HermesConfig":
        """A copy with some fields replaced (sweep helper)."""
        return replace(self, **kwargs)
