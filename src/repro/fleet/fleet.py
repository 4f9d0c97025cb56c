"""Fleet orchestration: N LB instances behind an ingress tier (§6 at scale).

A :class:`Fleet` is the one multi-instance container:

- membership, draining and per-connection device consistency live here:
  an ingress policy (``repro.fleet.ingress``) steers each new connection
  to an active instance, and the connection -> instance ledger routes its
  data there for life;
- each instance is a full :class:`~repro.lb.server.LBServer` with its
  per-worker reuseport stack, built by :func:`fleet_instance` —
  nothing about the single-device model changes;
- connection -> backend resolution is a :class:`FleetPolicy` from
  ``repro.fleet.lookup`` (stateful table vs Concury-style stateless);
- a rolling release is :class:`~repro.cluster.CanaryRelease` driving the
  fleet's own membership.

Fleet-scope scenarios: :meth:`Fleet.crash_instance` kills a whole
instance (every worker at once) with a detection window, after which the
stateless policy *migrates* surviving client connections to the remaining
instances (any instance can recompute their backend from the flow hash +
version stamp) while the stateful policy loses its table and breaks them;
:meth:`Fleet.churn_backends` rolls the backend set, publishing a new
:class:`BackendMap` version — established connections keep their
birth-version backend (PCC) and only connections whose backend was
removed break.

:func:`build_fleet` assembles the fleet scenario — environment, RNG
registry, instances, traffic and faults — as an unrun
:class:`~repro.cell.Cell`, the way :func:`~repro.cell.build_cell` does
for one device; :func:`run_fleet` builds, checks and runs every fleet.

Every fleet-scope transition emits a ``fleet.*`` trace event, and
``repro.check``'s :class:`~repro.check.PccMonitor` can audit the PCC
contract live against :meth:`live_records` / :meth:`expected_backend`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from ..cell import Cell
from ..faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from ..kernel.hash import jhash_words
from ..kernel.tcp import ConnState, Connection, Request
from ..lb.server import LBServer, NotificationMode
from ..sim.engine import Environment
from ..sim.monitor import Samples
from ..sim.rng import RngRegistry
from ..workloads.generator import TrafficGenerator, WorkloadSpec
from .ingress import make_ingress
from .lookup import BackendMap, FleetPolicy, make_lookup

__all__ = ["FleetRun", "FlowRecord", "Fleet", "aggregate_metrics",
           "build_fleet", "check_churn", "fleet_faults", "fleet_instance",
           "fleet_spec", "metrics_doc", "reduce_metrics", "run_fleet"]

#: Backends a fleet starts with unless told otherwise.
N_BACKENDS = 8

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
    """N LB instances, one ingress policy, one backend-lookup policy.

    The ingress policy sprays each new connection over the active
    (non-draining) instances; a draining instance keeps its established
    connections until they run out.
    """

    def __init__(self, env: Environment, instances: Sequence[LBServer],
                 policy=FleetPolicy.STATELESS, ingress="ecmp",
                 hash_seed: int = 0x5eed, n_backends: int = N_BACKENDS,
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
        self.instances: List[LBServer] = list(instances)
        self._draining: Set[LBServer] = set()
        #: conn id -> owning instance (per-connection consistency).
        self._owner: Dict[int, LBServer] = {}
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
    def active_instances(self) -> List[LBServer]:
        return [d for d in self.instances if d not in self._draining]

    def start(self) -> None:
        for instance in self.instances:
            instance.start()

    def add_instance(self, instance: LBServer) -> None:
        if instance in self.instances:
            raise ValueError("instance already in fleet")
        self.instances.append(instance)

    def is_draining(self, instance: LBServer) -> bool:
        return instance in self._draining

    def instance_drained(self, instance: LBServer) -> bool:
        """True when no worker on the instance holds connections anymore."""
        return all(len(w.conns) == 0 for w in instance.workers)

    def remove_instance(self, instance: LBServer) -> int:
        """Remove a (drained) instance; returns its residual connections."""
        self.instances.remove(instance)
        self._draining.discard(instance)
        return sum(len(w.conns) for w in instance.workers)

    def instance_for(self, connection: Connection) -> Optional[LBServer]:
        return self._owner.get(connection.id)

    # -- traffic entry (the generator's ``_Target`` protocol) ---------------
    def connect(self, connection: Connection) -> bool:
        """Spray a new connection to an active instance by flow hash."""
        active = self.active_instances
        if not active:
            connection.reset("no active devices")
            return False
        instance = self.ingress.pick(connection.four_tuple, active)
        if not instance.connect(connection):
            return False
        self._owner[connection.id] = instance
        if connection.tenant_id >= 0:
            backend, version = self.lookup.assign(
                connection.four_tuple, instance.name, connection.id)
            self.records[connection.id] = FlowRecord(
                conn=connection, instance_name=instance.name,
                backend=backend, version=version)
        return True

    def deliver(self, connection: Connection, request: Request) -> None:
        """Route data to the instance owning this connection."""
        instance = self._owner.get(connection.id)
        if instance is None:
            raise KeyError(f"unknown connection {connection.id}")
        instance.deliver(connection, request)

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
        instance = self.instances[index]
        if not any(w.is_alive for w in instance.workers):
            raise RuntimeError(f"instance {instance.name} already down")
        if self.tracer is not None:
            conns = sum(len(w.conns) for w in instance.workers)
            self.tracer.instant("fleet.instance_crash", "fleet",
                                instance=instance.name, conns=conns,
                                policy=self.policy.value)
        self._draining.add(instance)
        for worker in instance.workers:
            if worker.is_alive:
                instance.crash_worker(worker.worker_id)
        self.crashed_instances.append(instance.name)
        self.env.schedule_callback(
            detect_delay, lambda: self._detect_instance(instance))
        return instance

    def drain_instance(self, index: int) -> LBServer:
        """Take one instance out of new-connection rotation; its
        established connections stay until they run out."""
        instance = self.instances[index]
        self._draining.add(instance)
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
        survivors = [d for d in self.active_instances
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
        self._owner[conn.id] = target
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
        check_churn(k, len(current))
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
        doc = aggregate_metrics(self.instances)
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


def reduce_metrics(docs: Sequence[dict]) -> dict:
    """The fleet-level reduction over per-instance metric docs, in order.

    Each doc carries ``latencies`` (raw samples in s, an ``array('d')``
    or any sequence of floats), ``completed``,
    ``failed``, ``accepted``, ``refused`` and ``elapsed``.  Latency
    percentiles are computed over the *pooled* samples (a mean of
    per-instance p99s would be wrong), counters are summed, and
    ``elapsed`` is the max.
    """
    if not docs:
        raise ValueError("need at least one instance")
    latencies = Samples("fleet.latency")
    for doc in docs:
        latencies.extend(doc["latencies"])
    completed = sum(doc["completed"] for doc in docs)
    elapsed = max(doc["elapsed"] for doc in docs)
    return {
        "instances": len(docs),
        "avg_ms": latencies.mean * 1e3,
        "p99_ms": latencies.percentile(99) * 1e3,
        "throughput_rps": completed / elapsed if elapsed > 0 else 0.0,
        "completed": completed,
        "failed": sum(doc["failed"] for doc in docs),
        "accepted": sum(doc["accepted"] for doc in docs),
        "refused": sum(doc["refused"] for doc in docs),
    }


def metrics_doc(device: LBServer) -> dict:
    """One device's metrics as the per-instance doc
    :func:`reduce_metrics` reads."""
    metrics = device.metrics
    return {"latencies": metrics.request_latencies.values,
            "completed": metrics.requests_completed,
            "failed": metrics.requests_failed,
            "accepted": metrics.connections_accepted,
            "refused": metrics.connections_refused,
            "elapsed": metrics.elapsed}


def aggregate_metrics(devices: Sequence[LBServer]) -> dict:
    """Merge live devices' metrics into one fleet-level row
    (:func:`reduce_metrics` over each :func:`metrics_doc`)."""
    return reduce_metrics([metrics_doc(device) for device in devices])


def check_churn(k: int, n_backends: int) -> None:
    """Refuse a backend churn of ``k`` that a set of ``n_backends`` cannot
    honour: at least one backend must retire and one must stay."""
    if not 1 <= k < n_backends:
        raise ValueError(
            f"churn size must be in [1, {n_backends}), got {k}")


def fleet_instance(env: Environment, index: int, fleet_seed: int, *,
                   n_workers: int, ports: Sequence[int], mode,
                   **server_options) -> LBServer:
    """Fleet instance ``index``: every fleet instance is built here.

    It is named ``lb{index}`` and gets a distinct, deterministically
    derived kernel hash seed (``jhash([index], fleet_seed)``), so the
    per-port reuseport sprays of different instances are decorrelated,
    as distinct VMs' skb hash seeds are.  ``server_options`` go verbatim
    to :class:`~repro.lb.server.LBServer`.
    """
    return LBServer(env, n_workers, list(ports), NotificationMode(mode),
                    hash_seed=jhash_words([index], fleet_seed),
                    name=f"lb{index}", **server_options)


def fleet_faults(seed: int, *, churn_at: Optional[float], churn_k: int,
                 crash_at: Optional[float] = None,
                 detect_delay: float = 0.005,
                 until: float = math.inf) -> Optional[FaultPlan]:
    """The fleet scenario's fault plan: a backend churn of ``churn_k`` at
    ``churn_at`` (none when it is None or negative) and, with
    ``crash_at``, a crash of the busiest instance detected
    ``detect_delay`` later.  A fault timed past ``until`` would never
    fire, so it is left out; with none left the plan is None, and a run
    makes no call into ``repro.faults``.  A NaN time is kept for
    :class:`~repro.faults.FaultSpec` to refuse.
    """
    faults = []
    if churn_at is not None and not (churn_at < 0 or churn_at > until):
        faults.append(FaultSpec(kind=FaultKind.BACKEND_CHURN, at=churn_at,
                                magnitude=churn_k))
    if crash_at is not None and not crash_at > until:
        faults.append(FaultSpec(kind=FaultKind.INSTANCE_CRASH, at=crash_at,
                                target="busiest", detect_delay=detect_delay))
    return FaultPlan(faults=tuple(faults), seed=seed) if faults else None


def fleet_spec(duration: float, conn_rate: float) -> WorkloadSpec:
    """The fleet workload, sharded or not: arrivals stop 0.3 s before
    the run ends; each connection sends 20 fixed 200 µs requests.
    Refuses a ``duration`` or ``conn_rate`` that is not finite and > 0.
    """
    from ..workloads.distributions import FixedFactory

    for name, value in (("conn_rate", conn_rate), ("duration", duration)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    return WorkloadSpec(name="fleet", conn_rate=conn_rate,
                        duration=max(0.1, duration - 0.3),
                        factory=FixedFactory((200e-6,)), ports=(443,),
                        requests_per_conn=20, request_gap_mean=0.05)


def build_fleet(spec: WorkloadSpec, mode, seed: int, *, n_instances: int,
                n_workers: int, policy, ingress,
                faults: Optional[FaultPlan] = None,
                shard: Optional[int] = None, **server_options) -> Cell:
    """Build a fleet of ``n_instances`` listening on ``spec.ports`` and its
    traffic, as an unrun :class:`~repro.cell.Cell` whose ``server`` is
    the :class:`Fleet`.

    The fleet hash seed is drawn from the ``"hash"`` stream and the
    traffic from ``"traffic"``, as :func:`~repro.cell.build_cell` draws
    them.  ``server_options`` go to every :func:`fleet_instance`; their
    ``tracer`` is also the fleet's.  ``faults`` arms a
    :class:`~repro.faults.FaultInjector` on the fleet; it draws from
    ``RngRegistry(faults.seed)``.

    With ``shard`` set to an index, only instance ``shard`` is built, the
    same instance the whole fleet gives that index, behind a
    :class:`~repro.fleet.sharded.ShardIngress` that evaluates the global
    ``ingress`` pick and refuses flows another instance owns: one shard
    of :func:`~repro.fleet.sharded.run_sharded_fleet`.
    """
    env = Environment()
    registry = RngRegistry(seed)
    hash_seed = registry.stream("hash").randrange(2 ** 32)
    indices = range(n_instances)
    if shard is not None:
        from .sharded import ShardIngress

        ingress = ShardIngress(ingress, hash_seed, n_instances, shard)
        indices = [shard]
    fleet = Fleet(env, [fleet_instance(env, index, hash_seed,
                                       n_workers=n_workers, ports=spec.ports,
                                       mode=mode, **server_options)
                        for index in indices],
                  policy=policy, ingress=ingress, hash_seed=hash_seed,
                  tracer=server_options.get("tracer"))
    fleet.start()
    gen = TrafficGenerator(env, fleet, registry.stream("traffic"), spec)
    injector = None
    if faults is not None:
        injector = FaultInjector(env, None, faults, fleet=fleet).arm()
    return Cell(env, registry, fleet, gen, injector)


@dataclass
class FleetRun:
    """A finished :func:`run_fleet`: its cell and, when checked, the PCC
    monitor (holding the instance monitors), every monitor's passes per
    name and the live-oracle comparisons per oracle."""

    cell: Cell
    pcc: Any = None
    passes: Dict[str, int] = field(default_factory=dict)
    comparisons: Dict[str, int] = field(default_factory=dict)

    @property
    def doc(self) -> dict:
        """The ``repro fleet --out`` document."""
        injector = self.cell.injector
        doc = dict(self.cell.server.summary(),
                   seed=self.cell.registry.master_seed,
                   faults_fired=injector.faults_fired if injector else 0)
        if self.pcc is not None:
            doc["pcc_violations"] = len(self.pcc.violations)
        return doc


def run_fleet(*, mode="hermes", policy="stateless", ingress="ecmp",
              n_instances: int = 4, n_workers: int = 2, seed: int = 31,
              duration: float = 1.5, conn_rate: float = 150.0,
              churn_at: Optional[float] = 0.6, churn_k: int = 2,
              crash_at: Optional[float] = None, detect_delay: float = 0.005,
              check: bool = False, corrupt_lookup: bool = False,
              raise_on_violation: bool = True, shard: Optional[int] = None,
              arrivals: Optional[Sequence] = None) -> FleetRun:
    """Run the fleet scenario (:func:`fleet_spec`, :func:`fleet_faults`
    up to ``duration``) to ``duration``.

    ``check`` arms :func:`~repro.check.watch_fleet` under
    :func:`~repro.check.check_tracer` and runs through
    :func:`~repro.check.run_checked`; an unchecked run builds no tracer.
    ``corrupt_lookup`` arms :func:`repro.check.pcc.corrupt_lookup`.  With
    ``shard``, only that instance is built and it replays ``arrivals``,
    its slice of :func:`~repro.fleet.sharded.fleet_arrivals`.
    """
    tracer = None
    if check:
        from ..check import check_tracer, run_checked, watch_fleet

        tracer = check_tracer()
    cell = build_fleet(
        fleet_spec(duration, conn_rate), mode, seed,
        n_instances=n_instances, n_workers=n_workers,
        policy=policy, ingress=ingress,
        faults=fleet_faults(seed, churn_at=churn_at, churn_k=churn_k,
                            crash_at=crash_at, detect_delay=detect_delay,
                            until=duration),
        shard=shard, tracer=tracer)
    run = FleetRun(cell)
    if check:
        run.pcc = watch_fleet(cell.server, raise_on_violation)
    if corrupt_lookup:
        from ..check.pcc import corrupt_lookup as lookup_drill

        lookup_drill(cell.server)
    if arrivals is None:
        cell.gen.start()
    else:
        cell.gen.replay(arrivals)
    if check:
        run.comparisons = run_checked(cell.env, run.pcc, duration,
                                      run.passes).comparisons
    else:
        cell.env.run(until=duration)
    return run
