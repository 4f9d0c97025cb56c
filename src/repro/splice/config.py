"""Tunables of the in-kernel interposition (splice) datapath.

The cost model follows XLB's measurements (PAPERS.md): once a flow is
spliced via SOCKMAP, forwarding a payload costs a small fixed sk_msg
redirect overhead plus a per-byte kernel-copy cost that is far below the
userspace read+parse+write cost — but installing the splice costs two BPF
map updates plus an epoll detach, and the SOCKMAP has finite capacity.
Magnitudes are anchored to the calibration constants in
:class:`~repro.core.config.OverheadCosts` (map update ~1.5 us, eBPF
program dispatch ~100 ns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..core import tunables as _tunables

__all__ = ["SpliceConfig", "config_from_overrides"]


@dataclass(frozen=True)
class SpliceConfig:
    """Tunables of the XLB-style SOCKMAP splice datapath."""

    #: Requests a worker parses in userspace before splicing the flow (the
    #: L7 handshake/parse phase; XLB splices after routing is decided).
    splice_after: int = 1
    #: Worker CPU to install the splice: two SOCKMAP updates (client and
    #: backend sides) plus removing the fd from epoll.
    setup_cost: float = 4e-6
    #: Kernel CPU to tear the splice down at FIN (map deletes + close).
    teardown_cost: float = 2e-6
    #: Fixed kernel CPU per forwarded request (sk_msg verdict + redirect).
    per_request_cost: float = 1e-6
    #: Kernel CPU per forwarded byte (in-kernel copy, no userspace crossing).
    #: Far below a userspace proxy's per-byte read+write cost.
    per_byte_cost: float = 1e-9
    #: SOCKMAP capacity: flows beyond this stay on the userspace path.
    sockmap_capacity: int = 1024
    #: Charon weight refresh period: the dispatch program recomputes its
    #: load-aware weights from per-worker connection counts at most this
    #: often (models the control-plane report interval).
    weight_refresh: float = 0.01
    #: Integer weight ceiling for the smooth weighted-round-robin picker
    #: (Charon carries quantized weights in the dataplane).
    max_weight: int = 16

    def __post_init__(self):
        if self.splice_after < 1:
            raise ValueError("splice_after must be >= 1")
        if self.setup_cost < 0:
            raise ValueError("setup_cost must be >= 0")
        if self.teardown_cost < 0:
            raise ValueError("teardown_cost must be >= 0")
        if self.per_request_cost < 0:
            raise ValueError("per_request_cost must be >= 0")
        if self.per_byte_cost < 0:
            raise ValueError("per_byte_cost must be >= 0")
        if self.sockmap_capacity < 1:
            raise ValueError("sockmap_capacity must be >= 1")
        if self.weight_refresh <= 0:
            raise ValueError("weight_refresh must be positive")
        if self.max_weight < 1:
            raise ValueError("max_weight must be >= 1")


    def tunables(self) -> dict:
        """Field -> value, for ``repro list`` metadata and run summaries."""
        return _tunables.tunable_values(self)


def config_from_overrides(overrides: Mapping[str, Any]) -> SpliceConfig:
    """Build a config from ``--set KEY=VALUE`` pairs, rejecting unknowns."""
    return _tunables.config_from_overrides(SpliceConfig, overrides,
                                           label="splice")
