"""One simulated device, assembled in one place.

Every single-device run — a Table 3 cell, a figure's mode sweep, a chaos
plan, the §7 crash blast — is the same assembly: an
:class:`~repro.sim.engine.Environment`, an
:class:`~repro.sim.rng.RngRegistry`, a hash seed, a started
:class:`~repro.lb.server.LBServer`, a :class:`~repro.workloads.generator
.TrafficGenerator` and, optionally, an armed
:class:`~repro.faults.FaultInjector`.  :func:`build_cell` does it, and
returns the cell unrun so callers can attach monitors, drills and
samplers before :meth:`Cell.run`::

    cell = build_cell(spec, NotificationMode.HERMES, seed=7, n_workers=8)
    monitor = watch(cell.server)
    cell.run(until=spec.duration + 0.5)

RNG streams are keyed by name, so two cells built from the same spec,
seed and stream names see byte-identical traffic whatever their mode.

A fleet scenario is a cell too: :func:`repro.fleet.build_fleet` returns
one whose ``server`` is the :class:`~repro.fleet.Fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from .lb.server import LBServer, NotificationMode
from .sim.engine import Environment
from .sim.rng import RngRegistry
from .workloads.generator import TrafficGenerator, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultInjector, FaultPlan
    from .fleet import Fleet

__all__ = ["Cell", "build_cell"]


@dataclass
class Cell:
    """A built, unrun device or fleet: everything a caller may hook into."""

    env: Environment
    registry: RngRegistry
    #: The device or fleet the traffic enters.
    server: Union[LBServer, "Fleet"]
    gen: TrafficGenerator
    #: The armed injector when the cell was built with ``faults``.
    injector: Optional["FaultInjector"] = None

    def run(self, until: float) -> "Cell":
        """Start the traffic and run the simulation to ``until``."""
        self.gen.start()
        self.env.run(until=until)
        return self


def build_cell(spec: WorkloadSpec, mode: NotificationMode, seed: int, *,
               n_workers: int, hash_stream: str = "hash",
               traffic_stream: str = "traffic",
               faults: Optional["FaultPlan"] = None,
               **server_options) -> Cell:
    """Build one device listening on ``spec.ports`` and its traffic.

    The hash seed is drawn from ``hash_stream`` and the traffic from
    ``traffic_stream``.  ``server_options`` (``config``, ``tracer``,
    ``nic``, ``group_key_mode``, ``prequal_config``, ``splice_config``, ...)
    go verbatim to :class:`~repro.lb.server.LBServer`.  ``faults`` arms a
    :class:`~repro.faults.FaultInjector` on the registry's ``"faults"``
    fork, emitting into the server's tracer.
    """
    env = Environment()
    registry = RngRegistry(seed)
    server = LBServer(
        env, n_workers=n_workers, ports=list(spec.ports), mode=mode,
        hash_seed=registry.stream(hash_stream).randrange(2 ** 32),
        **server_options)
    server.start()
    gen = TrafficGenerator(env, server, registry.stream(traffic_stream), spec)
    injector = None
    if faults is not None:
        from .faults import FaultInjector
        injector = FaultInjector(env, server, faults,
                                 registry=registry.fork("faults"),
                                 tracer=server.tracer).arm()
    return Cell(env, registry, server, gen, injector)
