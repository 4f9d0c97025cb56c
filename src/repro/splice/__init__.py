"""repro.splice — XLB-style in-kernel interposition datapath.

The fourth architecture in the repo's head-to-head, and the antithesis of
Hermes's: where HERMES makes the epoll wakeup *smarter* (userspace-directed
notification), XLB (PAPERS.md) removes the wakeup entirely — after the L7
handshake/parse the proxy pins the flow in a SOCKMAP and the kernel
forwards payloads between the two sockets (sk_msg redirect), skipping the
userspace copy and the worker wakeup.  The trade: a per-flow splice
setup/teardown cost, a finite SOCKMAP, and a dispatch policy that can only
use control-plane load reports (Charon-style quantized weights) instead of
Hermes's exact shared-memory state.

Wiring mirrors Hermes/Prequal: per-worker reuseport sockets plus a
dispatch program attached at every port's ``SO_ATTACH_REUSEPORT_EBPF``
hook; the splice engine adds one kernel forwarding lane per worker core.
The ``splice_crossover`` experiment sweeps request size x connection
lifetime to map where each datapath wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .config import SpliceConfig
    from .dispatch import CharonDispatchProgram
    from .engine import SpliceEngine
    from .sockmap import SockMap

__all__ = [
    "SpliceConfig", "config_from_overrides",
    "SockMap", "SpliceEngine", "SpliceLane", "SplicePath",
    "CharonDispatchProgram", "SpliceState", "build_splice",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("SpliceConfig", "config_from_overrides"),
    ".dispatch": ("CharonDispatchProgram",),
    ".engine": ("SpliceEngine", "SpliceLane", "SplicePath"),
    ".sockmap": ("SockMap",),
})


@dataclass
class SpliceState:
    """Everything the SPLICE mode hangs off an :class:`LBServer`."""

    config: SpliceConfig
    sockmap: SockMap
    engine: SpliceEngine
    program: CharonDispatchProgram

    def stats(self) -> dict:
        """One flat dict for run summaries and ``repro list``."""
        flat = dict(self.engine.stats())
        for key, value in self.sockmap.stats().items():
            flat[f"sockmap_{key}"] = value
        for key, value in self.program.stats().items():
            flat[f"dispatch_{key}"] = value
        return flat


def build_splice(env, server, config: SpliceConfig,
                 tracer=None) -> SpliceState:
    """Assemble the SPLICE subsystem for one LB device.

    Deterministic by construction: the Charon program draws no RNG (smooth
    WRR) and the engine schedules only closure callbacks on the sim clock,
    so a SPLICE run is byte-identical across process shards like every
    other mode.
    """
    from .dispatch import CharonDispatchProgram
    from .engine import SpliceEngine
    from .sockmap import SockMap

    sockmap = SockMap(config.sockmap_capacity)
    engine = SpliceEngine(env, server.metrics, sockmap, config,
                          tracer=tracer)
    program = CharonDispatchProgram(server.workers, clock=lambda: env.now,
                                    config=config, tracer=tracer)
    return SpliceState(config=config, sockmap=sockmap, engine=engine,
                       program=program)
