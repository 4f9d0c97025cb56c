"""The L7 LB worker process — the modified epoll event loop of Fig. 9.

Each worker is pinned to one simulated CPU core and runs the classic
run-to-completion loop: ``epoll_wait`` → handle each event (accept new
connections, process request events, tear down closed connections) → loop.

When a Hermes binding is present the loop carries the paper's four
instrumentation points:

- loop entry: ``shm_avail_update(current_time)`` (hang detection input);
- after ``epoll_wait``: ``shm_busy_count(+n)``;
- after each handled event: ``shm_busy_count(-1)``;
- accept / close: ``shm_conn_count(±1)``;

and ends each iteration with ``schedule_and_sync()`` — deliberately at the
*end* of the loop so the published status reflects the just-processed batch
(§5.3.2).  The CPU cost of all Hermes operations is accumulated and charged
to the worker's core once per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Set

from ..core.config import HermesConfig
from ..core.groups import HermesGroup
from ..kernel.epoll import Epoll, EpollEvent
from ..kernel.socket import EPOLLERR, EPOLLHUP, ConnSocket, ListeningSocket
from ..kernel.tcp import Connection, ConnState, Request
from ..sim.engine import Environment, Interrupt
from .metrics import DeviceMetrics, WorkerMetrics

__all__ = ["Worker", "WorkerState", "ServiceProfile", "HermesBinding"]


@dataclass(frozen=True)
class ServiceProfile:
    """Userspace cost model of the LB application itself."""

    #: CPU cost of accept() + connection setup (fd, routing context).
    accept_cost: float = 3e-6
    #: CPU cost of tearing a connection down.
    close_cost: float = 1e-6
    #: Edge-triggered conn fds: the handler drains *all* pending events in
    #: one invocation (the Nginx pattern behind the worker-hang pathology
    #: of Appendix C).  Level-triggered processes one event per loop pass.
    edge_triggered: bool = False
    #: Extra dispatch overhead per epoll_wait call per watched *shared*
    #: listening socket — the O(#ports) connection-dispatch cost of epoll
    #: exclusive the paper describes in Case 1 ("for exclusive, all ports
    #: are registered with the epoll instance ... O(#ports)"), covering
    #: contended wait-queue management and wakeup traversal.  Dedicated
    #: reuseport sockets don't pay it (their dispatch is O(1), done at SYN
    #: time by the kernel hash / Hermes program).
    per_port_wait_cost: float = 1e-6
    #: Cost of a futile accept() (EAGAIN after losing the wakeup race on a
    #: shared socket) — a wasted syscall, intrinsic to exclusive mode under
    #: high CPS.
    accept_miss_cost: float = 1e-6
    #: Per-worker connection-pool capacity (§5.1.1: "workers typically
    #: manage connections using preallocated memory pools of fixed
    #: capacity").  A worker at capacity resets new connections even with
    #: idle CPU — the incident that motivated the conn-count metric.
    #: None = unlimited.
    max_connections: Optional[int] = None


@dataclass
class HermesBinding:
    """Connects a worker to its Hermes group state."""

    group: HermesGroup
    #: This worker's column in the group's WST / bit in the bitmap.
    rank: int


class WorkerState(Enum):
    RUNNING = "running"
    CRASHED = "crashed"


class Worker:
    """One worker process pinned to one core."""

    def __init__(self, env: Environment, worker_id: int, epoll: Epoll,
                 metrics: WorkerMetrics, device: DeviceMetrics,
                 profile: Optional[ServiceProfile] = None,
                 config: Optional[HermesConfig] = None,
                 hermes: Optional[HermesBinding] = None,
                 tracer=None):
        self.env = env
        self.worker_id = worker_id
        self.epoll = epoll
        self.metrics = metrics
        self.device = device
        self.profile = profile or ServiceProfile()
        self.config = config or HermesConfig()
        self.hermes = hermes
        #: :class:`repro.splice.SpliceState` in SPLICE mode (set by the
        #: mode's setup hook); None everywhere else.
        self.splice = None
        #: Optional :class:`repro.obs.Tracer` (None = untraced).
        self.tracer = tracer
        self.state = WorkerState.RUNNING
        #: Listening sockets this worker watches (set by the server).
        self.listen_socks: Set[ListeningSocket] = set()
        #: Registration flags per listening socket, for re-arming after a
        #: capacity-driven accept-disable (the Nginx
        #: ngx_disable_accept_events pattern).
        self._listen_flags: Dict[ListeningSocket, bool] = {}
        self._accept_disabled = False
        #: Accepted connections keyed by their fd object.
        self.conns: Dict[ConnSocket, Connection] = {}
        self._forced_hang = 0.0
        self._pending_charge = 0.0
        self._proc = None
        self._shared_socket_count = 0
        self._wait_cost = 0.0
        #: Connections refused because the preallocated pool was full.
        self.pool_exhausted = 0
        #: Service-time multiplier (``slow_worker`` fault in
        #: ``repro.faults``): 1.0 = nominal speed.
        self.service_multiplier = 1.0

    def refresh_socket_accounting(self) -> None:
        """Recount shared (contended) listening sockets after wiring."""
        self._shared_socket_count = sum(
            1 for sock in self.listen_socks if sock.owner is None)
        # Hoisted loop-iteration cost: recomputed only when wiring changes,
        # not on every event-loop pass.
        self._wait_cost = (self.profile.per_port_wait_cost
                           * self._shared_socket_count)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._proc is not None:
            raise RuntimeError("worker already started")
        self._proc = self.env.process(self.run(), name=f"worker{self.worker_id}")

    def crash(self) -> None:
        """Kill the worker process (core dump).  Sockets are NOT cleaned up
        here — the server decides when the failure is detected."""
        if self.state is WorkerState.CRASHED:
            return
        self.state = WorkerState.CRASHED
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("crash")

    def restart(self) -> None:
        """Bring a crashed worker back (post-incident recovery).  The
        server re-binds sockets via ``LBServer.restart_worker``; this resets
        only process-local state and respawns the loop."""
        if self.state is not WorkerState.CRASHED:
            raise RuntimeError("only a crashed worker can restart")
        # Purge dead connection fds from the epoll: their owners were reset
        # at failure detection, and a level-triggered error condition would
        # otherwise re-report forever (a busy-looping fresh process).
        for fd in self.epoll.watched_fds():
            if fd not in self.listen_socks:
                self.epoll.ctl_del(fd)
        self.state = WorkerState.RUNNING
        self._proc = None
        self._forced_hang = 0.0
        self._pending_charge = 0.0
        self._accept_disabled = False
        self.service_multiplier = 1.0
        self.refresh_socket_accounting()
        self.start()

    def add_listen_socket(self, sock: ListeningSocket,
                          exclusive: bool = False) -> None:
        """Register a listening socket (remembering its epoll flags)."""
        self.epoll.ctl_add(sock, exclusive=exclusive)
        self.listen_socks.add(sock)
        self._listen_flags[sock] = exclusive

    @property
    def at_connection_capacity(self) -> bool:
        limit = self.profile.max_connections
        return limit is not None and len(self.conns) >= limit

    def _update_accept_interest(self) -> None:
        """Disable accept events at pool capacity, re-enable below it —
        what Nginx does when worker_connections run out."""
        if self.profile.max_connections is None:
            return
        if self.at_connection_capacity and not self._accept_disabled:
            for sock in self.listen_socks:
                if self.epoll.watches(sock):
                    self.epoll.ctl_del(sock)
            self._accept_disabled = True
        elif not self.at_connection_capacity and self._accept_disabled:
            for sock in self.listen_socks:
                if not self.epoll.watches(sock):
                    self.epoll.ctl_add(
                        sock, exclusive=self._listen_flags.get(sock, False))
            self._accept_disabled = False

    @property
    def is_alive(self) -> bool:
        return self.state is WorkerState.RUNNING

    @property
    def connection_count(self) -> int:
        return len(self.conns)

    @property
    def requests_in_flight(self) -> int:
        """Client request events delivered but not yet processed (RIF).

        Probe traffic (negative tenant ids) is infrastructure and does not
        count toward the load signal it is measuring.
        """
        total = 0
        for fd, conn in self.conns.items():
            if conn.tenant_id >= 0:
                total += fd.pending_events
        return total

    # -- Hermes instrumentation helpers --------------------------------------
    def _hermes_touch(self) -> None:
        if self.hermes is None:
            return
        self.hermes.group.wst.touch_timestamp(self.hermes.rank)
        if self.config.charge_overhead:
            self._pending_charge += self.config.costs.counter_update

    def _hermes_events(self, delta: int) -> None:
        if self.hermes is None:
            return
        self.hermes.group.wst.add_events(self.hermes.rank, delta)
        if self.config.charge_overhead:
            self._pending_charge += self.config.costs.counter_update

    def _hermes_conns(self, delta: int) -> None:
        if self.hermes is None:
            return
        self.hermes.group.wst.add_conns(self.hermes.rank, delta)
        if self.config.charge_overhead:
            self._pending_charge += self.config.costs.counter_update

    def _hermes_schedule(self) -> None:
        if self.hermes is None:
            return
        tracer = self.tracer
        if tracer is not None:
            # The cascade runs synchronously inside this loop iteration;
            # tag its filter-stage events with the worker that ran it.
            with tracer.ctx.scope(worker=self.worker_id):
                result = self.hermes.group.scheduler.schedule_and_sync()
        else:
            result = self.hermes.group.scheduler.schedule_and_sync()
        if self.config.charge_overhead:
            self._pending_charge += result.cpu_cost

    # -- CPU accounting -------------------------------------------------------
    def _busy(self, duration: float):
        """Consume ``duration`` seconds of this worker's core."""
        self.metrics.cpu.begin()
        yield duration  # direct timer: same ordering, no Timeout object
        self.metrics.cpu.end()

    # -- the event loop (Fig. 9) ---------------------------------------------
    def run(self):
        try:
            while True:
                self._hermes_touch()
                if self._forced_hang > 0:
                    hang = self._forced_hang
                    self._forced_hang = 0.0
                    yield from self._busy(hang)
                wait_cost = self._wait_cost
                if wait_cost > 0:
                    yield from self._busy(wait_cost)
                events = yield from self.epoll.wait(
                    self.config.epoll_timeout, self.config.max_events)
                if events:
                    self._hermes_events(len(events))
                for event in events:
                    yield from self.handle_event(event)
                    self._hermes_events(-1)
                self._hermes_schedule()
                if self._pending_charge > 0:
                    charge = self._pending_charge
                    self._pending_charge = 0.0
                    yield from self._busy(charge)
        except Interrupt:
            self.state = WorkerState.CRASHED
            self.metrics.cpu.end()
            return

    # -- event handlers -------------------------------------------------------
    def handle_event(self, event: EpollEvent):
        fd = event.fd
        if fd in self.listen_socks:
            yield from self._accept_handler(fd)
            return
        conn = self.conns.get(fd)
        if conn is None:
            return  # stale event for an fd we already closed
        if event.mask & EPOLLERR:
            yield from self._close_conn(conn, failed=True)
            return
        yield from self._conn_handler(conn, fd, event.mask)

    def _accept_handler(self, sock: ListeningSocket):
        """``accept_handler`` of Fig. 9: one accept per readiness event."""
        tracer = self.tracer
        conn = sock.accept()
        if conn is None:
            # EAGAIN: another worker drained the queue first — a wasted
            # syscall and wakeup.
            if tracer is not None:
                tracer.instant("accept.miss", "worker",
                               worker=self.worker_id, socket=sock.id)
            if self.profile.accept_miss_cost > 0:
                yield from self._busy(self.profile.accept_miss_cost)
            return
        if self.at_connection_capacity:
            # Connection-pool exhaustion (§5.1.1): the worker cannot take
            # another connection no matter how idle its CPU is.  This path
            # is a race remnant (interest was disabled but the event was
            # already harvested); the connection is refused.
            self.pool_exhausted += 1
            conn.reset("worker connection pool exhausted")
            self.device.record_failure()
            self._update_accept_interest()
            return
        yield from self._busy(self.profile.accept_cost)
        fd = conn.mark_accepted(self, self.env.now)
        if tracer is not None:
            # The conn fd's wake chain belongs to this trace from now on.
            fd.wait_queue.tracer = tracer
            tracer.instant("conn.accept", "worker", worker=self.worker_id,
                           conn=conn.id,
                           queue_delay=self.env.now - (conn.established_time
                                                       or self.env.now))
        self.epoll.ctl_add(fd, edge_triggered=self.profile.edge_triggered)
        self.conns[fd] = conn
        self.metrics.accepted += 1
        self.metrics.connections.increment()
        self.device.connections_accepted += 1
        self._hermes_conns(+1)
        self._update_accept_interest()

    def _conn_handler(self, conn: Connection, fd: ConnSocket, mask: int):
        """``other_handler`` of Fig. 9: process request data, handle FIN."""
        if conn.splice is not None:
            # The kernel owns this flow (repro.splice): data and FIN are
            # handled by the splice engine; any event reaching us here is
            # stale readiness harvested before the splice installed.
            return
        processed_any = True
        while processed_any:
            processed_any = False
            request = self._next_request(conn)
            if request is not None:
                yield from self._process_request_event(conn, request)
                fd.consume_readable(1)
                processed_any = self.profile.edge_triggered
        if fd.pending_events > 0 and self._next_request(conn) is None:
            # Defensive: counter drift — clear phantom readiness.
            fd.consume_readable(fd.pending_events)
        if (self.splice is not None and conn.splice is None
                and conn.state is ConnState.ACCEPTED
                and not conn.fin_pending and not mask & EPOLLHUP
                and conn.tenant_id >= 0
                and conn.requests_completed >= self.splice.config.splice_after
                and self._next_request(conn) is None):
            # L7 handshake/parse done: hand the flow to the kernel splice
            # path at a request boundary (XLB splices once routing is
            # decided).  A capacity-full SOCKMAP leaves it on this path.
            yield from self.splice.engine.splice_flow(conn, self)
        if (mask & EPOLLHUP or conn.fin_pending) and \
                self._next_request(conn) is None:
            yield from self._close_conn(conn)

    @staticmethod
    def _next_request(conn: Connection) -> Optional[Request]:
        for request in conn.inbox:
            if not request.done:
                return request
        return None

    def _process_request_event(self, conn: Connection, request: Request):
        """Run one event of a request to completion on this core."""
        tracer = self.tracer
        service = (request.event_times[request.next_event]
                   * self.service_multiplier)
        if request.start_service_time < 0:
            request.start_service_time = self.env.now
        if tracer is not None:
            rid = tracer.request_id(request)
            tracer.begin("request.service", "worker", worker=self.worker_id,
                         conn=conn.id, request=rid,
                         event_index=request.next_event)
        yield from self._busy(service)
        request.next_event += 1
        self.metrics.events_processed += 1
        self.metrics.event_processing_times.add(service)
        if tracer is not None:
            tracer.end("request.service", "worker", worker=self.worker_id,
                       conn=conn.id, request=rid)
        if request.done:
            request.completed_time = self.env.now
            conn.inbox.remove(request)
            conn.requests_completed += 1
            if tracer is not None:
                tracer.instant("request.complete", "worker",
                               worker=self.worker_id, conn=conn.id,
                               request=rid, latency=request.latency)
            if request.tenant_id >= 0:
                self.device.record_request(request.latency, self.worker_id,
                                           tenant_id=request.tenant_id)
            if request.on_complete is not None:
                request.on_complete(request)

    def _close_conn(self, conn: Connection, failed: bool = False):
        fd = conn.fd
        if fd is None or fd not in self.conns:
            return
        yield from self._busy(self.profile.close_cost)
        if self.tracer is not None:
            self.tracer.instant("conn.close", "worker",
                                worker=self.worker_id, conn=conn.id,
                                failed=failed)
        if self.epoll.watches(fd):
            self.epoll.ctl_del(fd)
        del self.conns[fd]
        if failed:
            for request in conn.inbox:
                if not request.done:
                    self.device.record_failure()
        conn.mark_closed(self.env.now)
        self.metrics.closed += 1
        self.metrics.connections.decrement()
        self._hermes_conns(-1)
        self._update_accept_interest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Worker {self.worker_id} {self.state.value} "
                f"conns={len(self.conns)}>")
