"""An L7 LB cluster behind an L4 spray layer (§6.1).

The evaluation cluster holds 8 LBs "for load sharing and failure recovery";
the L4 LB sprays new connections across devices by flow hash with
per-connection consistency (established connections stay put).  Draining a
device (canary rollout, failure replacement) removes it from new-connection
selection while its existing connections run out.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..kernel.tcp import Connection, Request
from ..lb.server import LBServer
from ..sim.engine import Environment

__all__ = ["LBCluster"]


class LBCluster:
    """A set of LB devices fed by flow-hash spraying.

    The spray itself is a pluggable ingress policy (``repro.fleet.ingress``);
    the default :class:`~repro.fleet.EcmpIngress` reproduces the historical
    inline flow-hash modulo bit-for-bit.
    """

    def __init__(self, env: Environment, devices: List[LBServer],
                 hash_seed: int = 0x5eed, ingress=None):
        if not devices:
            raise ValueError("need at least one device")
        if ingress is None:
            # Lazy import: repro.fleet builds on repro.cluster.
            from ..fleet.ingress import EcmpIngress
            ingress = EcmpIngress(hash_seed)
        self.ingress = ingress
        self.env = env
        self.hash_seed = hash_seed
        self.devices: List[LBServer] = list(devices)
        self._draining: Dict[LBServer, float] = {}
        #: connection -> owning device (per-connection consistency).
        self._conn_device: Dict[int, LBServer] = {}
        self.total_connections = 0

    # -- membership -------------------------------------------------------
    @property
    def active_devices(self) -> List[LBServer]:
        return [d for d in self.devices if d not in self._draining]

    def add_device(self, device: LBServer) -> None:
        if device in self.devices:
            raise ValueError("device already in cluster")
        self.devices.append(device)

    def drain_device(self, device: LBServer) -> None:
        """Stop sending new connections to a device; existing ones stay."""
        if device not in self.devices:
            raise ValueError("device not in cluster")
        self._draining[device] = self.env.now

    def is_draining(self, device: LBServer) -> bool:
        return device in self._draining

    def remove_device(self, device: LBServer) -> int:
        """Remove a (drained) device; returns its residual connections."""
        self.devices.remove(device)
        self._draining.pop(device, None)
        residual = sum(len(w.conns) for w in device.workers)
        return residual

    def device_drained(self, device: LBServer) -> bool:
        """True when no worker on the device holds connections anymore."""
        return all(len(w.conns) == 0 for w in device.workers)

    # -- traffic entry ------------------------------------------------------
    def connect(self, connection: Connection) -> bool:
        """Spray a new connection to an active device by flow hash."""
        active = self.active_devices
        if not active:
            connection.reset("no active devices")
            return False
        device = self.ingress.pick(connection.four_tuple, active)
        accepted = device.connect(connection)
        if accepted:
            self._conn_device[connection.id] = device
            self.total_connections += 1
        return accepted

    def deliver(self, connection: Connection, request: Request) -> None:
        """Route data to the device owning this connection."""
        device = self._conn_device.get(connection.id)
        if device is None:
            raise KeyError(f"unknown connection {connection.id}")
        device.deliver(connection, request)

    def device_for(self, connection: Connection) -> Optional[LBServer]:
        return self._conn_device.get(connection.id)

