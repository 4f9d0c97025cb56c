"""Shuffle sharding and phased overload scaling (Appendix C, case 2).

"Each tenant may purchase one or more L7 LB instances, which are deployed
on VM-based L7 LB devices ... To isolate failures across tenants, cloud
service providers usually adopt shuffle sharding, ensuring that each
tenant's L7 LB instance is deployed on a subset of VMs, which are further
managed in groups."

When node-local scheduling can't absorb a surge, Hermes escalates:

- **Phase 1 — scale out**: spread the overloaded instance across other
  *existing* VM groups.
- **Phase 2 — scale up**: add VMs to the instance's current groups.
- **Phase 3 — new groups**: provision fresh VM groups for the overflow.

Abusive tenants (attack traffic, hang-triggering workloads) are migrated
to an isolated *sandbox* group so they can't degrade anyone else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..kernel.hash import jhash_words, reciprocal_scale
from ..kernel.tcp import Connection, Request
from ..lb.server import LBServer
from ..sim.engine import Environment
from ..sim.rng import Stream

__all__ = ["VMGroup", "ShuffleShardedFleet", "TenantPlacement"]


@dataclass
class VMGroup:
    """A managed group of LB devices."""

    group_id: int
    devices: List[LBServer] = field(default_factory=list)
    #: Sandbox groups only host quarantined tenants.
    sandbox: bool = False


@dataclass
class TenantPlacement:
    """Where one tenant's instance currently runs."""

    tenant_id: int
    group_ids: List[int]
    #: Scaling phase already applied (0 = initial placement).
    phase: int = 0
    sandboxed: bool = False


class ShuffleShardedFleet:
    """VM groups + tenant placements + the escalation ladder."""

    def __init__(self, env: Environment, rng: Stream,
                 make_device: Callable[[str], LBServer],
                 n_groups: int = 4, devices_per_group: int = 2,
                 groups_per_tenant: int = 2, hash_seed: int = 0x7a11):
        if n_groups < 1 or devices_per_group < 1:
            raise ValueError("need at least one group and one device")
        if groups_per_tenant < 1 or groups_per_tenant > n_groups:
            raise ValueError("groups_per_tenant out of range")
        self.env = env
        self.rng = rng
        self.make_device = make_device
        self.groups_per_tenant = groups_per_tenant
        self.hash_seed = hash_seed
        self.groups: Dict[int, VMGroup] = {}
        self._next_group_id = 0
        self._next_device = 0
        for _ in range(n_groups):
            self._provision_group(devices_per_group)
        self.placements: Dict[int, TenantPlacement] = {}
        #: connection -> device (per-connection consistency).
        self._conn_device: Dict[int, LBServer] = {}

    # -- provisioning --------------------------------------------------------
    def _new_device(self) -> LBServer:
        self._next_device += 1
        device = self.make_device(f"fleet-dev{self._next_device}")
        device.start()
        return device

    def _provision_group(self, n_devices: int,
                         sandbox: bool = False) -> VMGroup:
        group = VMGroup(group_id=self._next_group_id, sandbox=sandbox)
        self._next_group_id += 1
        for _ in range(n_devices):
            group.devices.append(self._new_device())
        self.groups[group.group_id] = group
        return group

    # -- placement --------------------------------------------------------------
    def place_tenant(self, tenant_id: int) -> TenantPlacement:
        """Shuffle sharding: a random subset of non-sandbox groups."""
        if tenant_id in self.placements:
            return self.placements[tenant_id]
        candidates = [g.group_id for g in self.groups.values()
                      if not g.sandbox]
        chosen = self.rng.sample(candidates,
                                 min(self.groups_per_tenant,
                                     len(candidates)))
        placement = TenantPlacement(tenant_id=tenant_id,
                                    group_ids=sorted(chosen))
        self.placements[tenant_id] = placement
        return placement

    def devices_for(self, tenant_id: int) -> List[LBServer]:
        placement = self.placements.get(tenant_id)
        if placement is None:
            placement = self.place_tenant(tenant_id)
        devices: List[LBServer] = []
        for group_id in placement.group_ids:
            devices.extend(self.groups[group_id].devices)
        return devices

    def overlap(self, tenant_a: int, tenant_b: int) -> float:
        """Shared-device fraction between two tenants (the shuffle-
        sharding isolation metric: small overlap = small blast radius)."""
        a = set(id(d) for d in self.devices_for(tenant_a))
        b = set(id(d) for d in self.devices_for(tenant_b))
        union = a | b
        return len(a & b) / len(union) if union else 0.0

    # -- traffic -----------------------------------------------------------------
    def connect(self, connection: Connection) -> bool:
        devices = self.devices_for(connection.tenant_id)
        if not devices:
            connection.reset("tenant has no devices")
            return False
        flow_hash = jhash_words(
            [connection.four_tuple.src_ip & 0xFFFFFFFF,
             connection.four_tuple.src_port & 0xFFFF,
             connection.tenant_id & 0xFFFFFFFF], self.hash_seed)
        device = devices[reciprocal_scale(flow_hash, len(devices))]
        accepted = device.connect(connection)
        if accepted:
            self._conn_device[connection.id] = device
        return accepted

    def deliver(self, connection: Connection, request: Request) -> None:
        device = self._conn_device.get(connection.id)
        if device is None:
            raise KeyError(f"unknown connection {connection.id}")
        device.deliver(connection, request)

    # -- the escalation ladder --------------------------------------------------
    def tenant_capacity(self, tenant_id: int) -> int:
        return sum(d.n_workers for d in self.devices_for(tenant_id))

    def handle_overload(self, tenant_id: int,
                        devices_per_step: int = 1) -> int:
        """Apply the next escalation phase; returns the phase executed."""
        placement = self.placements.get(tenant_id)
        if placement is None:
            raise KeyError(f"tenant {tenant_id} has no placement")
        placement.phase += 1
        phase = min(placement.phase, 3)
        if phase == 1:
            # Scale out: join other existing (non-sandbox) groups.
            others = [g.group_id for g in self.groups.values()
                      if not g.sandbox
                      and g.group_id not in placement.group_ids]
            take = others[:devices_per_step] if others else []
            placement.group_ids.extend(take)
            placement.group_ids.sort()
        elif phase == 2:
            # Scale up: add VMs to the tenant's existing groups.
            for group_id in placement.group_ids[:devices_per_step]:
                self.groups[group_id].devices.append(self._new_device())
        else:
            # Phase 3: provision a brand-new group for the overflow.
            group = self._provision_group(devices_per_step)
            placement.group_ids.append(group.group_id)
        return phase

    # -- sandbox isolation ---------------------------------------------------------
    def migrate_to_sandbox(self, tenant_id: int,
                           sandbox_devices: int = 1) -> VMGroup:
        """Quarantine an abusive tenant on dedicated sandbox devices.

        Existing connections stay where they are (affinity); new ones land
        only on the sandbox.
        """
        sandbox = next((g for g in self.groups.values() if g.sandbox),
                       None)
        if sandbox is None:
            sandbox = self._provision_group(sandbox_devices, sandbox=True)
        placement = self.placements.get(tenant_id)
        if placement is None:
            placement = self.place_tenant(tenant_id)
        placement.group_ids = [sandbox.group_id]
        placement.sandboxed = True
        return sandbox

    @property
    def total_devices(self) -> int:
        return sum(len(g.devices) for g in self.groups.values())
