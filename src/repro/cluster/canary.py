"""Canary release of Hermes into a running fleet (§6.2, Fig. 11).

"During the rollout, new-version VMs with Hermes are gradually added to the
L7 LB cluster, while old-version VMs are phased out.  Once a VM is removed,
it no longer handles new connections, but existing connections continue to
transmit packets until the traffic on that VM fully drains."

The drain tail depends on client type: mobile clients drop connections
quickly; IoT/cloud clients hold them for a long time — in Region1 probes
kept reaching old VMs for 11 days.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..fleet.fleet import Fleet
from ..lb.server import LBServer
from ..sim.engine import Interrupt

__all__ = ["CanaryRelease"]


class CanaryRelease:
    """Replaces a fleet's old-version devices with new-version ones, batch
    by batch, through the fleet's own membership and draining."""

    def __init__(self, fleet: Fleet, old_devices: List[LBServer],
                 make_new_device: Callable[[int], LBServer],
                 batch_size: int = 1, batch_interval: float = 1.0,
                 drain_poll: float = 0.5):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.env = fleet.env
        self.fleet = fleet
        self.remaining_old = list(old_devices)
        self.make_new_device = make_new_device
        self.batch_size = batch_size
        self.batch_interval = batch_interval
        self.drain_poll = drain_poll
        # -- state / stats -------------------------------------------------
        self.new_devices: List[LBServer] = []
        self.draining: List[LBServer] = []
        self.retired: List[LBServer] = []
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._proc = None

    def start(self) -> None:
        self.started_at = self.env.now
        self._proc = self.env.process(self._run(), name="canary")

    @property
    def rollout_complete(self) -> bool:
        """All old devices out of rotation (drain may still be running)."""
        return not self.remaining_old and not self.draining \
            and self.completed_at is not None

    @property
    def fraction_new(self) -> float:
        """Share of active (non-draining) devices running the new version."""
        active = self.fleet.active_instances
        if not active:
            return 0.0
        return sum(1 for d in active if d in self.new_devices) / len(active)

    def _run(self):
        try:
            batch_index = 0
            while self.remaining_old:
                batch = self.remaining_old[:self.batch_size]
                del self.remaining_old[:self.batch_size]
                for old in batch:
                    new = self.make_new_device(batch_index)
                    new.start()
                    self.fleet.add_instance(new)
                    self.new_devices.append(new)
                    self.fleet.drain_instance(
                        self.fleet.instances.index(old))
                    self.draining.append(old)
                    batch_index += 1
                yield self.env.timeout(self.batch_interval)
            # Wait for every draining device to empty, then retire it.
            while self.draining:
                yield self.env.timeout(self.drain_poll)
                for old in list(self.draining):
                    if self.fleet.instance_drained(old):
                        self.fleet.remove_instance(old)
                        self.draining.remove(old)
                        self.retired.append(old)
            self.completed_at = self.env.now
        except Interrupt:
            return
