"""repro.prequal — probe-based, latency-aware scheduling (Google Prequal).

The third architecture in the repo's head-to-head: where EXCLUSIVE is
load-oblivious kernel wakeup and HERMES is userspace-directed notification
from exact load state, PREQUAL balances on *probed* signals — asynchronous
probes carrying requests-in-flight (RIF) and estimated latency, selected
power-of-d style with hot/cold lane classification and anti-herding pool
hygiene (remove-on-use + max-age eviction).

Wiring mirrors Hermes: per-worker reuseport sockets plus a dispatch
program attached to every port's reuseport group.  Design deltas from the
paper are documented in ``docs/API.md``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from ..sim.rng import Stream

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .config import PrequalConfig
    from .dispatch import PrequalState

__all__ = [
    "POLICIES", "PrequalConfig", "config_from_overrides",
    "ProbePool", "ProbeSample",
    "PrequalDecision", "PrequalSelector",
    "PrequalProber", "PrequalDispatchProgram", "PrequalState",
    "build_prequal",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("POLICIES", "PrequalConfig", "config_from_overrides"),
    ".dispatch": ("PrequalDispatchProgram", "PrequalState"),
    ".pool": ("ProbePool", "ProbeSample"),
    ".probes": ("PrequalProber",),
    ".selector": ("PrequalDecision", "PrequalSelector"),
})


def build_prequal(env, server, config: PrequalConfig,
                  tracer=None) -> PrequalState:
    """Assemble the PREQUAL subsystem for one LB device.

    The prober's sampling stream is derived from the device's hash seed
    and name the same way :class:`repro.sim.rng.RngRegistry` derives named
    streams, so probe schedules are reproducible and independent of every
    traffic stream.
    """
    from .dispatch import PrequalDispatchProgram, PrequalState
    from .pool import ProbePool
    from .probes import PrequalProber
    from .selector import PrequalSelector

    pool = ProbePool(capacity=config.pool_size, max_age=config.max_age,
                     reuse_budget=config.reuse_budget)
    selector = PrequalSelector(pool, config)
    digest = hashlib.sha256(
        f"prequal:{server.stack.hash_seed}:{server.name}".encode()).digest()
    rng = Stream(int.from_bytes(digest[:8], "big"),
                 name=f"{server.name}.prequal")
    prober = PrequalProber(env, server, pool, config, rng, tracer=tracer)
    program = PrequalDispatchProgram(
        selector, clock=lambda: env.now, n_workers=server.n_workers,
        prober=prober, tracer=tracer)
    return PrequalState(config=config, pool=pool, selector=selector,
                        prober=prober, program=program)
