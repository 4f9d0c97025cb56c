"""Fleet orchestration: N LB instances behind an ingress tier (§6 at scale).

A :class:`Fleet` composes the existing building blocks end to end:

- membership, draining, and per-connection device consistency come from
  :class:`~repro.cluster.LBCluster` (one cluster = one fleet), now fed by
  a pluggable ingress policy (``repro.fleet.ingress``);
- each instance is a full :class:`~repro.lb.server.LBServer` with its
  per-worker reuseport stack — nothing about the single-device model
  changes;
- connection -> backend resolution is a :class:`FleetPolicy` from
  ``repro.fleet.lookup`` (stateful table vs Concury-style stateless);
- rolling canary and fleet sizing reuse the §6.2 models
  (:class:`~repro.cluster.CanaryRelease`, AutoscaleModel) unchanged.

Fleet-scope scenarios: :meth:`Fleet.crash_instance` kills a whole
instance (every worker at once) with a detection window, after which the
stateless policy *migrates* surviving client connections to the remaining
instances (any instance can recompute their backend from the flow hash +
version stamp) while the stateful policy loses its table and breaks them;
:meth:`Fleet.churn_backends` rolls the backend set, publishing a new
:class:`BackendMap` version — established connections keep their
birth-version backend (PCC) and only connections whose backend was
removed break.

Every fleet-scope transition emits a ``fleet.*`` trace event, and
``repro.check``'s :class:`~repro.check.PccMonitor` can audit the PCC
contract live against :meth:`live_records` / :meth:`expected_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..cluster.autoscale import AutoscaleModel
from ..cluster.canary import CanaryRelease
from ..cluster.cluster import LBCluster
from ..kernel.hash import jhash_words
from ..kernel.tcp import ConnState, Connection, Request
from ..lb.server import LBServer, NotificationMode
from ..sim.engine import Environment
from ..sim.monitor import Samples
from .ingress import make_ingress
from .lookup import BackendMap, FleetPolicy, make_lookup

__all__ = ["FlowRecord", "Fleet", "aggregate_metrics", "build_fleet"]

#: Connection states with no live data path (nothing left to protect).
_DEAD_STATES = (ConnState.CLOSED, ConnState.RESET, ConnState.REFUSED)


@dataclass
class FlowRecord:
    """The fleet's view of one client connection (its PCC contract)."""

    conn: Connection
    #: Name of the instance currently owning the connection.
    instance_name: str
    #: The backend the connection was pinned to at birth.
    backend: int
    #: BackendMap version the pin was computed under.
    version: int
    #: True once the connection survived an instance failover.
    migrated: bool = False
    #: "instance" / "backend" when the connection legitimately broke.
    broken_reason: Optional[str] = None


class Fleet:
    """N LB instances, one ingress policy, one backend-lookup policy."""

    def __init__(self, env: Environment, instances: Sequence[LBServer],
                 policy=FleetPolicy.STATELESS, ingress="ecmp",
                 hash_seed: int = 0x5eed, n_backends: int = 8,
                 n_slots: int = 128, tracer=None):
        if not instances:
            raise ValueError("need at least one instance")
        if n_backends < 1:
            raise ValueError("need at least one backend")
        self.env = env
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(env)
        if isinstance(ingress, str):
            ingress = make_ingress(ingress, hash_seed=hash_seed)
        self.ingress = ingress
        self.cluster = LBCluster(env, list(instances), hash_seed=hash_seed,
                                 ingress=ingress)
        self.backend_map = BackendMap(list(range(n_backends)),
                                      n_slots=n_slots, hash_seed=hash_seed)
        self._next_backend_id = n_backends
        self.policy = (FleetPolicy(policy) if isinstance(policy, str)
                       else policy)
        self.lookup = make_lookup(self.policy, self.backend_map, hash_seed)
        #: conn id -> :class:`FlowRecord` (the PCC ledger).
        self.records: Dict[int, FlowRecord] = {}
        # -- fleet-scope statistics ---------------------------------------
        self.migrated = 0
        self.broken_instance = 0
        self.broken_backend = 0
        self.churn_events = 0
        self.crashed_instances: List[str] = []

    # -- membership --------------------------------------------------------
    @property
    def instances(self) -> List[LBServer]:
        return self.cluster.devices

    @property
    def active_instances(self) -> List[LBServer]:
        return self.cluster.active_devices

    def start(self) -> None:
        for instance in self.cluster.devices:
            instance.start()

    # -- traffic entry (the generator's ``_Target`` protocol) ---------------
    def connect(self, connection: Connection) -> bool:
        accepted = self.cluster.connect(connection)
        if accepted and connection.tenant_id >= 0:
            instance = self.cluster.device_for(connection)
            backend, version = self.lookup.assign(
                connection.four_tuple, instance.name, connection.id)
            self.records[connection.id] = FlowRecord(
                conn=connection, instance_name=instance.name,
                backend=backend, version=version)
        return accepted

    def deliver(self, connection: Connection, request: Request) -> None:
        self.cluster.deliver(connection, request)

    # -- fleet-scope faults --------------------------------------------------
    def crash_instance(self, index: int,
                       detect_delay: float = 0.005) -> LBServer:
        """Kill every worker of one instance; detection fires later.

        The instance is drained immediately (the L4 tier stops steering
        new flows the moment its health probe fails), but its established
        connections stay dark until ``detect_delay`` elapses — the fleet-
        level analogue of the §7 probe-detection window.  At detection the
        stateless policy migrates the surviving client connections to the
        remaining instances; the stateful policy drops the instance's
        lookup table, breaking them.
        """
        instance = self.cluster.devices[index]
        if not any(w.is_alive for w in instance.workers):
            raise RuntimeError(f"instance {instance.name} already down")
        if self.tracer is not None:
            conns = sum(len(w.conns) for w in instance.workers)
            self.tracer.instant("fleet.instance_crash", "fleet",
                                instance=instance.name, conns=conns,
                                policy=self.policy.value)
        if not self.cluster.is_draining(instance):
            self.cluster.drain_device(instance)
        for worker in instance.workers:
            if worker.is_alive:
                instance.crash_worker(worker.worker_id)
        self.crashed_instances.append(instance.name)
        self.env.schedule_callback(
            detect_delay, lambda: self._detect_instance(instance))
        return instance

    def drain_instance(self, index: int) -> LBServer:
        """Take one instance out of new-connection rotation (canary-style)."""
        instance = self.cluster.devices[index]
        self.cluster.drain_device(instance)
        if self.tracer is not None:
            self.tracer.instant("fleet.drain", "fleet",
                                instance=instance.name)
        return instance

    def _detect_instance(self, instance: LBServer) -> None:
        """The failure-detection edge: failover (stateless) then cleanup."""
        migrated = 0
        if self.lookup.stateless:
            migrated = self._failover_instance(instance)
        else:
            self.lookup.drop_instance(instance.name)
        for worker in instance.workers:
            instance.detect_and_clean_worker(worker.worker_id)
        broken = 0
        for record in self.records.values():
            if record.instance_name != instance.name:
                continue
            if record.broken_reason is not None or record.migrated:
                continue
            if record.conn.state in (ConnState.RESET, ConnState.REFUSED):
                record.broken_reason = "instance"
                broken += 1
        self.broken_instance += broken
        if self.tracer is not None:
            self.tracer.instant("fleet.instance_detect", "fleet",
                                instance=instance.name, migrated=migrated,
                                broken=broken)

    def _failover_instance(self, instance: LBServer) -> int:
        """Stateless failover: re-home the dead instance's client conns.

        Because the backend is a pure function of (flow hash, version),
        any surviving instance can serve these connections without state
        transfer — only the L4 steering and the fd bookkeeping move.
        Probe connections (negative tenant ids) are infrastructure and are
        left for ``detect_and_clean_worker``; their prober re-pins them.
        """
        survivors = [d for d in self.cluster.active_devices
                     if d is not instance and d.alive_workers]
        if not survivors:
            return 0
        migrated = 0
        for worker in instance.workers:
            # Connections still parked in the dead instance's accept
            # queues first: pop them before cleanup closes the sockets
            # (close would RST them).  They were never accepted here, so
            # the dead side has no ledger entry to settle.
            for sock in instance._worker_sockets.get(
                    worker.worker_id, {}).values():
                while sock.accept_queue:
                    conn = sock.accept_queue.popleft()
                    if conn.tenant_id < 0 or conn.state in _DEAD_STATES:
                        conn.reset("worker crashed")
                        continue
                    if self._adopt(conn, instance, worker, survivors,
                                   accepted_here=False):
                        migrated += 1
            for fd in list(worker.conns):
                conn = worker.conns[fd]
                if conn.tenant_id < 0 or conn.state is not ConnState.ACCEPTED:
                    continue
                if self._adopt(conn, instance, worker, survivors,
                               accepted_here=True):
                    migrated += 1
        self.migrated += migrated
        return migrated

    def _adopt(self, conn: Connection, instance: LBServer, worker,
               survivors: List[LBServer], accepted_here: bool) -> bool:
        target = self.ingress.pick(conn.four_tuple, survivors)
        new_worker = target.adopt_connection(conn)
        if new_worker is None:
            return False  # every survivor worker at capacity: conn reset
        if accepted_here:
            # Settle the dead worker's ledger: the migration is a close
            # from its point of view (accepted == closed + in-flight).
            # Its WST column is NOT touched — a dead publisher cannot
            # decrement, which is exactly why _crashed_ever exempts it.
            old_fd = conn.fd if conn.fd in worker.conns else None
            for fd in list(worker.conns):
                if worker.conns[fd] is conn:
                    old_fd = fd
                    break
            if old_fd is not None:
                if worker.epoll.watches(old_fd):
                    worker.epoll.ctl_del(old_fd)
                del worker.conns[old_fd]
                old_fd.close()
                worker.metrics.closed += 1
                worker.metrics.connections.decrement()
        self.cluster._conn_device[conn.id] = target
        record = self.records.get(conn.id)
        if record is not None:
            self.lookup.migrate(conn.id, record.instance_name, target.name)
            record.instance_name = target.name
            record.migrated = True
        if self.tracer is not None:
            self.tracer.instant("fleet.migrate", "fleet", conn=conn.id,
                                src=instance.name, dst=target.name,
                                worker=new_worker.worker_id)
        return True

    def churn_backends(self, k: int = 1) -> int:
        """Roll the backend set: retire the ``k`` highest ids, add ``k`` new.

        Publishes a new :class:`BackendMap` version.  Established
        connections keep resolving under their birth version (PCC); only
        connections pinned to a retired backend break — the legal PCC
        exception — and are reset so their clients reconnect under the
        new version.  Returns the number of connections broken.
        """
        current = self.backend_map.backends
        if k < 1 or k >= len(current):
            raise ValueError("churn size must be in [1, n_backends)")
        removed = sorted(current)[-k:]
        kept = [b for b in current if b not in removed]
        added = [self._next_backend_id + i for i in range(k)]
        self._next_backend_id += k
        version = self.backend_map.update(kept + added)
        broken = 0
        for record in self.records.values():
            if record.broken_reason is not None:
                continue
            if record.conn.state in _DEAD_STATES:
                continue
            if record.backend in removed:
                record.broken_reason = "backend"
                broken += 1
                record.conn.reset("backend removed")
        self.broken_backend += broken
        self.churn_events += 1
        if self.tracer is not None:
            self.tracer.instant("fleet.backend_churn", "fleet",
                                removed=removed, added=added,
                                version=version, broken=broken)
        return broken

    # -- §6.2 model reuse ----------------------------------------------------
    def rolling_canary(self, make_new_instance: Callable[[int], LBServer],
                       batch_size: int = 1, batch_interval: float = 1.0,
                       drain_poll: float = 0.5) -> CanaryRelease:
        """A fleet-wide rolling release, driven by the §6.2 canary model.

        The release operates on this fleet's cluster, so draining, device
        retirement, and per-connection consistency all flow through the
        same membership the ingress tier uses.  Call ``.start()`` on the
        returned release to begin the rollout.
        """
        return CanaryRelease(
            self.env, self.cluster, list(self.cluster.active_devices),
            make_new_instance, batch_size=batch_size,
            batch_interval=batch_interval, drain_poll=drain_poll)

    def instances_needed(self, traffic: float, fraction_hermes: float = 1.0,
                         model: Optional[AutoscaleModel] = None) -> int:
        """Fleet sizing via the §6.2 autoscale model (reused, not rebuilt)."""
        model = model if model is not None else AutoscaleModel()
        return model.devices_needed(traffic, fraction_hermes)

    # -- PCC audit surface (consumed by repro.check.PccMonitor) --------------
    def live_records(self) -> List[FlowRecord]:
        """Records whose PCC contract is currently enforceable."""
        out = []
        for record in self.records.values():
            if record.broken_reason is not None:
                continue
            if record.conn.state in _DEAD_STATES:
                continue
            out.append(record)
        return out

    def expected_backend(self, record: FlowRecord) -> Optional[int]:
        """What the lookup policy answers *now* for a record's connection."""
        return self.lookup.resolve(record.conn.four_tuple,
                                   record.instance_name, record.conn.id,
                                   record.version)

    # -- reporting -----------------------------------------------------------
    def broken_connections(self) -> int:
        return self.broken_instance + self.broken_backend

    def summary(self) -> dict:
        doc = aggregate_metrics(self.cluster.devices)
        doc["policy"] = self.policy.value
        doc["ingress"] = self.ingress.name
        doc["backend_version"] = self.backend_map.version
        doc["churn_events"] = self.churn_events
        doc["migrated"] = self.migrated
        doc["broken_instance"] = self.broken_instance
        doc["broken_backend"] = self.broken_backend
        doc["broken"] = self.broken_connections()
        doc["crashed_instances"] = list(self.crashed_instances)
        return doc


def aggregate_metrics(devices: Sequence[LBServer]) -> dict:
    """Merge per-device metrics into one fleet-level row.

    Latency percentiles are computed over the *pooled* samples (a mean of
    per-device p99s would be wrong), counters are summed.
    """
    if not devices:
        raise ValueError("need at least one device")
    latencies = Samples("fleet.latency")
    completed = failed = accepted = refused = 0
    for device in devices:
        latencies.extend(device.metrics.request_latencies.values)
        completed += device.metrics.requests_completed
        failed += device.metrics.requests_failed
        accepted += device.metrics.connections_accepted
        refused += device.metrics.connections_refused
    elapsed = max(device.metrics.elapsed for device in devices)
    return {
        "instances": len(devices),
        "avg_ms": latencies.mean * 1e3,
        "p99_ms": latencies.percentile(99) * 1e3,
        "throughput_rps": completed / elapsed if elapsed > 0 else 0.0,
        "completed": completed,
        "failed": failed,
        "accepted": accepted,
        "refused": refused,
    }


def build_fleet(env: Environment, n_instances: int, n_workers: int,
                ports: Sequence[int], mode=NotificationMode.HERMES,
                policy=FleetPolicy.STATELESS, ingress="ecmp",
                hash_seed: int = 0x5eed, n_backends: int = 8,
                n_slots: int = 128, tracer=None, profile=None,
                config=None) -> Fleet:
    """Construct N uniform LB instances plus the fleet around them.

    Each instance gets a distinct, deterministically derived kernel hash
    seed (``jhash([index], hash_seed)``) so the per-port reuseport sprays
    of different instances are decorrelated, as distinct VMs' skb hash
    seeds are.
    """
    if isinstance(mode, str):
        mode = NotificationMode(mode)
    instances = []
    for index in range(n_instances):
        instances.append(LBServer(
            env, n_workers, ports, mode,
            hash_seed=jhash_words([index], hash_seed),
            name=f"lb{index}", tracer=tracer, profile=profile,
            config=config))
    return Fleet(env, instances, policy=policy, ingress=ingress,
                 hash_seed=hash_seed, n_backends=n_backends,
                 n_slots=n_slots, tracer=tracer)
