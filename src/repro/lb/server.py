"""One L7 LB device: workers, ports, and the notification mode wiring.

An :class:`LBServer` is a VM with ``n_workers`` cores, each running one
worker process, serving a set of tenant ports.  The ``mode`` selects the
I/O event notification mechanism under test:

- ``HERD`` — pre-4.5 epoll: every worker's epoll registers non-exclusively
  on shared per-port sockets (thundering-herd wakeups).
- ``EXCLUSIVE`` — EPOLLEXCLUSIVE on shared sockets (LIFO wakeups).
- ``EXCLUSIVE_RR`` — the epoll-roundrobin proposal (rotating wakeups).
- ``REUSEPORT`` — per-worker SO_REUSEPORT sockets, stateless hash dispatch.
- ``HERMES`` — reuseport sockets plus the full closed loop: WST, cascading
  scheduler embedded in every worker, eBPF dispatch program attached to
  every port's reuseport group.
- ``SPLICE`` — XLB-style in-kernel interposition: after the L7 parse a
  flow is pinned in a SOCKMAP and forwarded kernel-side (no wakeup, no
  userspace copy), dispatched by Charon-style load-aware weights.

Mode wiring lives in the :mod:`repro.lb.modes` registry: each
architecture registers an :class:`~repro.lb.modes.ArchitectureSpec`
declaring its setup, tunables, and lifecycle hooks, and ``LBServer``
resolves ``mode.value`` against it.

Failure injection mirrors the paper's exception cases: :meth:`crash_worker`
kills a process (sockets linger until :meth:`detect_and_clean_worker`, the
probe-detection window of §7), and :meth:`hang_worker` blocks one worker's
loop for a duration.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Sequence

from ..core.config import HermesConfig
from ..core.groups import HermesGroup
from ..kernel.epoll import Epoll
from ..kernel.nic import Nic
from ..kernel.socket import ListeningSocket
from ..kernel.tcp import Connection, NetStack, Request
from ..sim.engine import Environment
from .metrics import DeviceMetrics
from .modes import ModeOptions, get_mode
from .worker import ServiceProfile, Worker

__all__ = ["LBServer", "NotificationMode"]


class NotificationMode(Enum):
    HERD = "herd"
    EXCLUSIVE = "exclusive"
    EXCLUSIVE_RR = "exclusive_rr"
    #: io_uring-style FIFO wakeup order on shared sockets (§8): fixed
    #: order like exclusive, just from the other end of the queue.
    IOURING_FIFO = "iouring_fifo"
    REUSEPORT = "reuseport"
    HERMES = "hermes"
    #: Probe-based, latency-aware scheduling (Google Prequal): reuseport
    #: sockets plus a dispatch program fed by a pool of async probe replies
    #: carrying RIF + estimated latency (``repro.prequal``).
    PREQUAL = "prequal"
    #: XLB-style in-kernel interposition: SOCKMAP splice forwarding with
    #: Charon load-aware dispatch weights (``repro.splice``).
    SPLICE = "splice"
    #: The §2.2 userspace-dispatcher baseline: one dedicated worker
    #: accepts everything and hands off least-loaded.
    USERSPACE_DISPATCHER = "userspace_dispatcher"

    @property
    def spec(self):
        """This mode's :class:`~repro.lb.modes.ArchitectureSpec`."""
        return get_mode(self.value)

    @property
    def uses_shared_sockets(self) -> bool:
        return self.spec.uses_shared_sockets


class LBServer:
    """A single L7 LB device (VM) with one worker per core."""

    def __init__(self, env: Environment, n_workers: int,
                 ports: Sequence[int], mode: NotificationMode,
                 config: Optional[HermesConfig] = None,
                 profile: Optional[ServiceProfile] = None,
                 hash_seed: int = 0, nic: Optional[Nic] = None,
                 group_key_mode: str = "four_tuple",
                 stagger_registration: bool = False,
                 name: str = "lb", tracer=None, prequal_config=None,
                 splice_config=None):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if not ports:
            raise ValueError("need at least one port")
        self.env = env
        self.name = name
        self.mode = mode
        #: The registered :class:`~repro.lb.modes.ArchitectureSpec`.
        self.mode_spec = get_mode(mode.value)
        if self.mode_spec.validate is not None:
            self.mode_spec.validate(n_workers, ports)
        self.ports = list(ports)
        self.config = config or HermesConfig()
        self.profile = profile or ServiceProfile()
        #: Optional :class:`repro.obs.Tracer`, propagated to every layer
        #: (kernel stack, epolls, workers, schedulers).  None = untraced,
        #: and the simulation is bit-identical to an uninstrumented run.
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(env)
        self.stack = NetStack(env, hash_seed=hash_seed, nic=nic,
                              tracer=tracer)
        self.metrics = DeviceMetrics(env)
        self.groups: List[HermesGroup] = []
        self.dispatch_program = None
        #: :class:`repro.prequal.PrequalState` when mode is PREQUAL.
        self.prequal = None
        #: :class:`repro.splice.SpliceState` when mode is SPLICE.
        self.splice = None
        #: worker_id -> {port -> dedicated socket} (reuseport modes).
        self._worker_sockets: Dict[int, Dict[int, ListeningSocket]] = {}

        self.workers: List[Worker] = []
        dispatcher_mode = self.mode_spec.uses_dispatcher_worker
        for worker_id in range(n_workers):
            epoll = Epoll(env, name=f"{name}.w{worker_id}",
                          worker_id=worker_id, tracer=tracer)
            worker_metrics = self.metrics.register_worker(worker_id)
            if dispatcher_mode and worker_id == 0:
                from .dispatcher import DispatcherWorker
                self.workers.append(DispatcherWorker(
                    env, worker_id, epoll, worker_metrics, self.metrics,
                    profile=self.profile, config=self.config))
            else:
                self.workers.append(Worker(
                    env, worker_id, epoll, worker_metrics, self.metrics,
                    profile=self.profile, config=self.config))
            self.workers[-1].tracer = tracer

        self.mode_spec.setup(self, ModeOptions(
            group_key_mode=group_key_mode,
            stagger_registration=stagger_registration,
            prequal_config=prequal_config,
            splice_config=splice_config))

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker process."""
        for worker in self.workers:
            worker.refresh_socket_accounting()
            worker.start()
        if self.mode_spec.on_start is not None:
            self.mode_spec.on_start(self)

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def alive_workers(self) -> List[Worker]:
        return [w for w in self.workers if w.is_alive]

    # -- traffic entry points --------------------------------------------------
    def connect(self, connection: Connection) -> bool:
        """A new client connection (SYN) arrives at this device."""
        accepted = self.stack.connect(connection)
        if not accepted:
            self.metrics.connections_refused += 1
        return accepted

    def deliver(self, connection: Connection, request: Request) -> None:
        """Client data arrives on an established connection."""
        self.stack.deliver(connection, request)

    def adopt_connection(self, connection: Connection):
        """Take over an established connection from another device.

        The fleet failover path (``repro.fleet``): under the stateless
        lookup policy any instance can serve a migrated connection, so on
        instance failure the L4 tier re-steers its established flows here.
        The adopting worker is picked deterministically by flow hash over
        the alive workers (walking on from a full worker, as the L4
        re-steer retries); the connection gets a fresh fd with its pending
        data readable, and full accept bookkeeping so the conservation
        ledger (``accepted == closed + in_flight + resets``) stays exact.

        Returns the adopting :class:`Worker`, or None when every alive
        worker is at connection capacity (the connection is then reset
        and counted as refused).
        """
        from ..kernel.hash import jhash_4tuple, reciprocal_scale
        alive = self.alive_workers
        if not alive:
            raise RuntimeError(f"{self.name} has no alive workers to adopt")
        flow_hash = jhash_4tuple(connection.four_tuple, self.stack.hash_seed)
        start = reciprocal_scale(flow_hash, len(alive))
        worker = None
        for offset in range(len(alive)):
            candidate = alive[(start + offset) % len(alive)]
            if not candidate.at_connection_capacity:
                worker = candidate
                break
        if worker is None:
            connection.reset("adoption refused: workers at capacity")
            self.metrics.connections_refused += 1
            return None
        if connection.splice is not None:
            # The flow was spliced in the failed instance's kernel; the
            # re-steer detaches it there (late lane completions drop) and
            # it arrives here as ordinary userspace traffic.
            connection.splice.engine.abort(connection.splice)
            connection.splice = None
        fd = connection.mark_accepted(worker, self.env.now)
        if self.tracer is not None:
            fd.wait_queue.tracer = self.tracer
            self.tracer.instant("conn.adopt", "worker",
                                worker=worker.worker_id, conn=connection.id)
        worker.epoll.ctl_add(fd, edge_triggered=self.profile.edge_triggered)
        worker.conns[fd] = connection
        worker.metrics.accepted += 1
        worker.metrics.connections.increment()
        self.metrics.connections_accepted += 1
        worker._hermes_conns(+1)
        worker._update_accept_interest()
        return worker

    # -- failure injection -----------------------------------------------------
    def hang_worker(self, worker_id: int, duration: float) -> None:
        """Block one worker's next loop iteration (routed through the
        ``repro.faults`` primitive — the single hang-injection path)."""
        from ..faults.injector import inject_hang
        inject_hang(self.workers[worker_id], duration, tracer=self.tracer)

    def crash_worker(self, worker_id: int,
                     cleanup_delay: Optional[float] = None) -> None:
        """Kill a worker.  Its sockets stay in the reuseport group until
        cleanup (``cleanup_delay`` seconds later; None = never), modelling
        the probe-based failure-detection window."""
        worker = self.workers[worker_id]
        if self.tracer is not None:
            self.tracer.instant("worker.crash", "worker", worker=worker_id,
                                conns=len(worker.conns))
        worker.crash()
        if cleanup_delay is not None:
            self.env.schedule_callback(
                cleanup_delay, lambda: self.detect_and_clean_worker(worker_id))

    def detect_and_clean_worker(self, worker_id: int) -> int:
        """Failure detected: close the worker's sockets, reset its
        connections so clients can re-establish.  Returns the number of
        connections that were killed (the blast radius)."""
        worker = self.workers[worker_id]
        for socket in self._worker_sockets.get(worker_id, {}).values():
            # Close in place (tombstone) so member-socket indices of the
            # other workers stay stable, as REUSEPORT_SOCKARRAY slots do.
            socket.close()
        if worker.hermes is not None:
            group = worker.hermes.group
            group.sock_map.remove(worker.hermes.rank)
        # Probe connections (negative tenant ids) die with the worker too,
        # but they are infrastructure: they count toward neither the blast
        # radius nor the failure metric, and their prober re-pins them.
        blast = 0
        for conn in list(worker.conns.values()):
            if conn.tenant_id >= 0:
                blast += 1
                self.metrics.record_failure()
            conn.reset("worker crashed")
        worker.conns.clear()
        worker.metrics.connections.set(0)
        if self.tracer is not None:
            self.tracer.instant("worker.cleanup", "worker", worker=worker_id,
                                blast_radius=blast)
        return blast

    def restart_worker(self, worker_id: int) -> None:
        """Bring a crashed worker back into service (the recovery leg of
        the §7 incident).  If the failure was never detected, detection runs
        first — a worker cannot restart while its old sockets linger.

        Reuseport modes bind *fresh* per-port sockets for the worker; the
        tombstoned old sockets stay in each group's array so the member
        indices of every other worker remain stable.  Because every port's
        group has seen the identical bind history, the new socket lands at
        the same array index on every port, which lets HERMES repoint the
        worker's ``REUSEPORT_SOCKARRAY`` slot at it.
        """
        worker = self.workers[worker_id]
        if worker.is_alive:
            raise RuntimeError(f"worker {worker_id} is not crashed")
        if worker.conns:
            self.detect_and_clean_worker(worker_id)
        # Drop tombstoned (closed) listening sockets from the worker's view.
        for socket in [s for s in worker.listen_socks if s.closed]:
            if worker.epoll.watches(socket):
                worker.epoll.ctl_del(socket)
            worker.listen_socks.discard(socket)
            worker._listen_flags.pop(socket, None)
        if not self.mode_spec.uses_shared_sockets:
            new_index = None
            for port in self.ports:
                socket = self.stack.bind_reuseport(port, owner=worker)
                worker.add_listen_socket(socket)
                self._worker_sockets.setdefault(worker_id, {})[port] = socket
                new_index = self.stack.group_for(port).sockets.index(socket)
            if self.mode_spec.on_restart is not None and new_index is not None:
                # Repoint the mode's dispatch state (Hermes SOCKARRAY slot,
                # prequal/splice program index) at the fresh socket.
                self.mode_spec.on_restart(self, worker_id, new_index)
        worker.restart()
        if self.tracer is not None:
            self.tracer.instant("worker.restart", "worker", worker=worker_id)

    # -- introspection -----------------------------------------------------------
    def worker_socket(self, worker_id: int, port: int) -> ListeningSocket:
        """The dedicated socket of a worker on a port (reuseport modes)."""
        return self._worker_sockets[worker_id][port]

    def connection_counts(self) -> List[int]:
        return [len(w.conns) for w in self.workers]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LBServer {self.name} mode={self.mode.value} "
                f"workers={len(self.workers)} ports={len(self.ports)}>")
