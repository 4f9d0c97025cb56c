"""The kernel-side forwarding engine for spliced flows.

Once a worker splices a flow (after the L7 handshake/parse), its payload
never crosses into userspace again: request data is forwarded by the
kernel on the owning worker's core — XLB's sk_msg redirect — with a cost
model of its own (fixed per-request verdict cost plus a per-byte in-kernel
copy far below the userspace read+parse+write cost) and, crucially, **no
epoll wakeup**.  Each worker core gets one forwarding *lane*: a FIFO whose
busy time models softirq CPU on that core, independent of the worker
process — a hung or crashed-but-undetected worker keeps forwarding, which
is exactly the resilience asymmetry the splice-vs-hermes comparison is
about.

The engine keeps an exact request/byte conservation ledger
(``in == forwarded + dropped + in_flight``) that
:class:`repro.check.InvariantMonitor` audits while a run is live.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict

from ..kernel.tcp import Connection, ConnState, Request
from .config import SpliceConfig
from .sockmap import SockMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..lb.metrics import DeviceMetrics
    from ..lb.worker import Worker
    from ..sim.engine import Environment

__all__ = ["SpliceEngine", "SplicePath", "SpliceLane"]


class SpliceLane:
    """One core's kernel forwarding FIFO (softirq time on that core)."""

    __slots__ = ("worker_id", "busy_until", "busy_seconds",
                 "requests_forwarded")

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.busy_until = 0.0
        self.busy_seconds = 0.0
        self.requests_forwarded = 0


class SplicePath:
    """Kernel-side ownership of one spliced flow.

    Installed as ``Connection.splice``; the kernel layer routes delivery,
    FIN and RST through it instead of the fd's epoll wake chain.
    """

    __slots__ = ("engine", "conn", "worker", "in_flight", "aborted",
                 "closing")

    def __init__(self, engine: "SpliceEngine", conn: Connection,
                 worker: "Worker"):
        self.engine = engine
        self.conn = conn
        self.worker = worker
        #: Requests accepted onto the lane but not yet forwarded.
        self.in_flight = 0
        #: Detached (reset / adopted elsewhere): late lane completions drop.
        self.aborted = False
        #: Teardown already scheduled on the lane.
        self.closing = False

    # -- hooks the kernel layer calls ------------------------------------
    def on_deliver(self, request: Request) -> None:
        self.engine.forward(self, request)

    def on_client_close(self) -> None:
        # ``conn.fin_pending`` is already set; tear down once drained.
        if self.in_flight == 0 and not self.closing:
            self.engine.begin_teardown(self)

    def on_reset(self) -> None:
        self.engine.abort(self)


class SpliceEngine:
    """Forwards spliced payloads kernel-side, one lane per worker core."""

    def __init__(self, env: "Environment", device: "DeviceMetrics",
                 sockmap: SockMap, config: SpliceConfig, tracer=None):
        self.env = env
        self.device = device
        self.sockmap = sockmap
        self.config = config
        self.tracer = tracer
        self._lanes: Dict[int, SpliceLane] = {}
        # -- flow counters ------------------------------------------------
        self.flows_spliced = 0
        self.flows_torn_down = 0
        self.flows_aborted = 0
        # -- the conservation ledger ---------------------------------------
        self.requests_in = 0
        self.requests_forwarded = 0
        self.requests_dropped = 0
        self.requests_in_flight = 0
        self.bytes_in = 0
        self.bytes_forwarded = 0
        self.bytes_dropped = 0
        self.bytes_in_flight = 0

    def _lane(self, worker_id: int) -> SpliceLane:
        lane = self._lanes.get(worker_id)
        if lane is None:
            lane = SpliceLane(worker_id)
            self._lanes[worker_id] = lane
        return lane

    # -- splice install (runs on the worker's core) ------------------------
    def splice_flow(self, conn: Connection, worker: "Worker"):
        """Generator: attempt to splice ``conn``; charges the worker.

        Called from the worker's event loop at a request boundary.  The
        SOCKMAP capacity check is free (a map lookup); only a viable
        install pays ``setup_cost``.  The flow stays on the userspace path
        when the map is full — the capacity miss is counted.
        """
        if len(self.sockmap) >= self.sockmap.capacity:
            self.sockmap.capacity_misses += 1
            return
        yield from worker._busy(self.config.setup_cost)
        # Re-check after the setup delay: a FIN or RST may have raced in,
        # in which case the worker's normal close path owns the flow.
        if (conn.state is not ConnState.ACCEPTED or conn.fin_pending
                or conn.splice is not None):
            return
        if not self.sockmap.install(conn.id, worker.worker_id):
            return  # lost the last slot during setup; stays userspace
        conn.splice = SplicePath(self, conn, worker)
        self.flows_spliced += 1
        worker.metrics.flows_spliced += 1
        # The kernel owns the flow now: the worker stops polling it.  This
        # is the whole point — payload events no longer wake the worker.
        if conn.fd is not None and worker.epoll.watches(conn.fd):
            worker.epoll.ctl_del(conn.fd)
        if self.tracer is not None:
            self.tracer.instant("splice.install", "splice",
                                worker=worker.worker_id, conn=conn.id)

    # -- data path -----------------------------------------------------------
    def forward(self, path: SplicePath, request: Request) -> None:
        """Queue one request on the owning core's kernel lane."""
        size = request.size_bytes
        self.requests_in += 1
        self.bytes_in += size
        config = self.config
        cost = config.per_request_cost + size * config.per_byte_cost
        lane = self._lane(path.worker.worker_id)
        env = self.env
        now = env.now
        busy_until = lane.busy_until
        start = busy_until if busy_until > now else now
        finish = start + cost
        lane.busy_until = finish
        lane.busy_seconds += cost
        path.in_flight += 1
        self.requests_in_flight += 1
        self.bytes_in_flight += size
        env.schedule_callback(
            finish - now, partial(self._complete, path, request, lane))

    def _complete(self, path: SplicePath, request: Request,
                  lane: SpliceLane) -> None:
        """A request leaves ``lane`` (its flow's lane): forward or drop."""
        size = request.size_bytes
        path.in_flight -= 1
        self.requests_in_flight -= 1
        self.bytes_in_flight -= size
        conn = path.conn
        if path.aborted or conn.state is not ConnState.ACCEPTED:
            # The flow died (reset at failure detection, adoption) while
            # this request sat on the lane: the bytes are dropped.  The
            # connection-level failure was already recorded by whoever
            # reset the flow, so no extra failure count here.
            self.requests_dropped += 1
            self.bytes_dropped += size
            return
        request.next_event = request.n_events
        request.completed_time = self.env.now
        inbox = conn.inbox
        # Lanes are FIFO, so the request almost always heads the inbox.
        if inbox and inbox[0] is request:
            del inbox[0]
        elif request in inbox:
            inbox.remove(request)
        conn.requests_completed += 1
        lane.requests_forwarded += 1
        self.requests_forwarded += 1
        self.bytes_forwarded += size
        self.device.requests_spliced += 1
        if self.tracer is not None:
            rid = self.tracer.request_id(request)
            self.tracer.instant("request.complete", "splice",
                                worker=path.worker.worker_id, conn=conn.id,
                                request=rid, latency=request.latency)
        if request.tenant_id >= 0:
            self.device.record_request(request.latency,
                                       path.worker.worker_id,
                                       tenant_id=request.tenant_id)
        if request.on_complete is not None:
            request.on_complete(request)
        if conn.fin_pending and path.in_flight == 0 and not path.closing:
            self.begin_teardown(path)

    # -- teardown ------------------------------------------------------------
    def begin_teardown(self, path: SplicePath) -> None:
        """FIN observed and the lane is drained: unsplice kernel-side."""
        path.closing = True
        lane = self._lane(path.worker.worker_id)
        now = self.env.now
        start = lane.busy_until if lane.busy_until > now else now
        finish = start + self.config.teardown_cost
        lane.busy_until = finish
        lane.busy_seconds += self.config.teardown_cost
        self.env.schedule_callback(
            finish - now, partial(self._finish_teardown, path))

    def _finish_teardown(self, path: SplicePath) -> None:
        conn = path.conn
        if path.aborted or conn.state is not ConnState.ACCEPTED:
            return  # reset raced the teardown; abort already cleaned up
        path.aborted = True
        self.sockmap.remove(conn.id)
        worker = path.worker
        fd = conn.fd
        conn.splice = None
        conn.mark_closed(self.env.now)
        if fd is not None and fd in worker.conns:
            del worker.conns[fd]
            worker.metrics.closed += 1
            worker.metrics.connections.decrement()
            worker._update_accept_interest()
        self.flows_torn_down += 1
        if self.tracer is not None:
            self.tracer.instant("conn.close", "splice",
                                worker=worker.worker_id, conn=conn.id,
                                failed=False)

    def abort(self, path: SplicePath) -> None:
        """Detach a flow (RST / failure detection / fleet adoption):
        in-flight lane work drains into the dropped ledger."""
        if path.aborted:
            return
        path.aborted = True
        self.sockmap.remove(path.conn.id)
        self.flows_aborted += 1

    # -- auditing ------------------------------------------------------------
    def conserved(self) -> bool:
        """The splice ledger balances (checked live by ``repro.check``)."""
        return (self.requests_in == (self.requests_forwarded
                                     + self.requests_dropped
                                     + self.requests_in_flight)
                and self.bytes_in == (self.bytes_forwarded
                                      + self.bytes_dropped
                                      + self.bytes_in_flight)
                and self.requests_in_flight >= 0
                and self.bytes_in_flight >= 0)

    def kernel_busy_seconds(self) -> float:
        """Total softirq CPU consumed by forwarding, across all lanes."""
        return sum(lane.busy_seconds for lane in self._lanes.values())

    def stats(self) -> dict:
        return {
            "flows_spliced": self.flows_spliced,
            "flows_torn_down": self.flows_torn_down,
            "flows_aborted": self.flows_aborted,
            "requests_in": self.requests_in,
            "requests_forwarded": self.requests_forwarded,
            "requests_dropped": self.requests_dropped,
            "requests_in_flight": self.requests_in_flight,
            "bytes_in": self.bytes_in,
            "bytes_forwarded": self.bytes_forwarded,
            "bytes_dropped": self.bytes_dropped,
            "bytes_in_flight": self.bytes_in_flight,
            "kernel_busy_seconds": self.kernel_busy_seconds(),
        }
