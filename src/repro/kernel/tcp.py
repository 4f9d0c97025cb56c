"""TCP connection machinery: requests, connections, and the network stack.

The :class:`NetStack` is the per-LB-device kernel entry point.  Traffic
generators call :meth:`NetStack.connect` with a new :class:`Connection`; the
stack resolves the destination port to either a shared listening socket
(epoll-exclusive deployments) or a reuseport group, completes the handshake,
and enqueues the connection on the chosen accept queue — waking the
appropriate wait queues along the way.

Requests model L7 work at exactly the granularity the Hermes scheduler can
observe (§5.2.1): a request is a sequence of fd-readiness *events*, each
carrying a userspace processing time.  Packet sizes and handler kinds ride
along for workload realism but the kernel never inspects them — that
asymmetry is the paper's core motivation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Tuple

from ..sim.engine import Environment
from .hash import FourTuple
from .nic import Nic
from .reuseport import ReuseportGroup
from .socket import ConnSocket, ListeningSocket

__all__ = ["Request", "Connection", "ConnState", "NetStack", "PortBinding"]


@dataclass
class Request:
    """One L7 request on a connection.

    ``event_times`` holds the userspace CPU time of each readiness event the
    request generates (e.g. header read, body read, response write).  The
    next event of a request becomes readable as soon as the previous one has
    been processed, modelling streamed data under run-to-completion.
    """

    tenant_id: int = 0
    size_bytes: int = 512
    event_times: Tuple[float, ...] = (0.001,)
    handler: str = "http"
    arrival_time: float = -1.0
    start_service_time: float = -1.0
    completed_time: float = -1.0
    #: Index of the next event awaiting processing.
    next_event: int = 0
    #: Invoked by the worker when the request completes (probe replies use
    #: this to report back to their issuer on the sim clock).
    on_complete: Optional[Callable[["Request"], None]] = None

    @property
    def total_service(self) -> float:
        return sum(self.event_times)

    @property
    def n_events(self) -> int:
        return len(self.event_times)

    @property
    def done(self) -> bool:
        return self.next_event >= len(self.event_times)

    @property
    def latency(self) -> Optional[float]:
        if self.completed_time < 0 or self.arrival_time < 0:
            return None
        return self.completed_time - self.arrival_time


class ConnState(Enum):
    SYN_SENT = "syn_sent"
    ESTABLISHED = "established"   # handshake done, waiting in accept queue
    ACCEPTED = "accepted"         # owned by a worker
    CLOSED = "closed"
    RESET = "reset"
    REFUSED = "refused"           # backlog overflow / port unbound


#: States in which a connection takes no more data or FINs.
_FINISHED = (ConnState.CLOSED, ConnState.RESET, ConnState.REFUSED)


class Connection:
    """A client connection traversing the LB."""

    _ids = itertools.count(1)

    def __init__(self, four_tuple: FourTuple, tenant_id: int = 0,
                 created_time: float = 0.0):
        self.id = next(Connection._ids)
        self.four_tuple = four_tuple
        self.tenant_id = tenant_id
        self.state = ConnState.SYN_SENT
        self.created_time = created_time
        self.established_time: Optional[float] = None
        self.accepted_time: Optional[float] = None
        self.closed_time: Optional[float] = None
        self.reset_reason: Optional[str] = None
        #: The accept queue this connection landed on.
        self.listen_socket: Optional[ListeningSocket] = None
        #: The fd created at accept time; None until accepted.
        self.fd: Optional[ConnSocket] = None
        #: The worker that accepted us (opaque to the kernel layer).
        self.worker: Optional[object] = None
        #: Requests delivered but not yet fully processed.
        self.inbox: List[Request] = []
        self.requests_completed = 0
        #: Client closed its end; worker must observe and clean up.
        self.fin_pending = False
        #: Kernel splice path (``repro.splice.SplicePath``); when set, data
        #: and FIN/RST are routed to the splice engine instead of the fd's
        #: epoll wake chain — the flow never wakes its worker again.
        self.splice = None

    @property
    def port(self) -> int:
        return self.four_tuple.dst_port

    # -- data-path events --------------------------------------------------
    def deliver_request(self, request: Request, now: float) -> None:
        """A request arrives from the client.

        The first event of the request becomes readable immediately; later
        events surface as the worker consumes earlier ones (streamed data).
        """
        if self.state in _FINISHED:
            raise ValueError(f"cannot deliver to {self.state.value} connection")
        request.arrival_time = now
        self.inbox.append(request)
        if self.splice is not None:
            # Spliced flow: the kernel forwards the payload itself; no
            # readable event ever reaches the worker's epoll.
            self.splice.on_deliver(request)
            return
        if self.fd is not None:
            # Each request event is one readable unit (streamed chunks that
            # are already buffered in the kernel when the request lands).
            self.fd.push_readable(request.n_events)

    def client_close(self) -> None:
        """Client sends FIN."""
        if self.state in _FINISHED:
            return
        self.fin_pending = True
        if self.splice is not None:
            # Spliced flow: teardown is kernel-side too (unsplice after the
            # lane drains) — the FIN does not wake the worker.
            self.splice.on_client_close()
            return
        if self.fd is not None:
            self.fd.push_hangup()

    def reset(self, reason: str) -> None:
        """Abort the connection (RST from either side)."""
        if self.state in (ConnState.RESET, ConnState.REFUSED):
            return
        self.state = ConnState.RESET
        self.reset_reason = reason
        if self.splice is not None:
            # Detach from the splice engine (SOCKMAP delete); anything
            # still on the kernel lane drains into the dropped ledger.
            self.splice.on_reset()
        if self.fd is not None:
            self.fd.push_error()

    # -- lifecycle transitions driven by the worker -------------------------
    def mark_accepted(self, worker: object, now: float) -> ConnSocket:
        """Create the conn fd at accept time; pending data is readable."""
        self.state = ConnState.ACCEPTED
        self.worker = worker
        self.accepted_time = now
        self.fd = ConnSocket(self)
        pending_units = sum(
            request.n_events - request.next_event for request in self.inbox)
        if pending_units:
            # Data that arrived while queued is immediately readable.
            self.fd.push_readable(pending_units)
        if self.fin_pending:
            self.fd.push_hangup()
        return self.fd

    def mark_closed(self, now: float) -> None:
        self.state = ConnState.CLOSED
        self.closed_time = now
        if self.fd is not None:
            self.fd.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Connection #{self.id} tenant={self.tenant_id} "
                f"port={self.port} {self.state.value}>")


@dataclass
class PortBinding:
    """How one destination port is bound on the device.

    Exactly one of ``shared`` (a single listening socket all workers epoll
    on) or ``group`` (a reuseport group of per-worker sockets) is set.
    """

    port: int
    shared: Optional[ListeningSocket] = None
    group: Optional[ReuseportGroup] = None

    def __post_init__(self):
        if (self.shared is None) == (self.group is None):
            raise ValueError("exactly one of shared/group must be set")


class NetStack:
    """The kernel network stack of one LB device."""

    def __init__(self, env: Environment, hash_seed: int = 0,
                 handshake_delay: float = 0.0, nic: Optional[Nic] = None,
                 tracer=None):
        self.env = env
        self.hash_seed = hash_seed
        self.handshake_delay = handshake_delay
        self.nic = nic
        #: Optional :class:`repro.obs.Tracer`, propagated into every
        #: socket/group this stack creates (None = untraced).
        self.tracer = tracer
        self.bindings: dict[int, PortBinding] = {}
        # -- statistics -----------------------------------------------------
        self.total_syns = 0
        self.total_established = 0
        self.total_refused = 0

    # -- binding -----------------------------------------------------------
    def bind_shared(self, port: int, backlog: Optional[int] = None,
                    rotate_on_wake: bool = False,
                    waiter_insertion: str = "head") -> ListeningSocket:
        """Bind one shared listening socket to ``port``.

        ``rotate_on_wake`` turns on the epoll-roundrobin wait-queue
        variant; ``waiter_insertion="tail"`` models io_uring's FIFO
        wakeup order.
        """
        if port in self.bindings:
            raise ValueError(f"port {port} already bound")
        kwargs = {"rotate_on_wake": rotate_on_wake,
                  "waiter_insertion": waiter_insertion}
        if backlog is not None:
            kwargs["backlog"] = backlog
        socket = ListeningSocket(port, **kwargs)
        socket.wait_queue.tracer = self.tracer
        self.bindings[port] = PortBinding(port=port, shared=socket)
        return socket

    def bind_reuseport(self, port: int, owner: object,
                       backlog: Optional[int] = None) -> ListeningSocket:
        """Bind a per-worker SO_REUSEPORT socket to ``port``.

        Creates the reuseport group on first bind.
        """
        binding = self.bindings.get(port)
        if binding is None:
            binding = PortBinding(
                port=port, group=ReuseportGroup(port, self.hash_seed,
                                                tracer=self.tracer))
            self.bindings[port] = binding
        elif binding.group is None:
            raise ValueError(f"port {port} is bound without SO_REUSEPORT")
        kwargs = {"owner": owner}
        if backlog is not None:
            kwargs["backlog"] = backlog
        socket = ListeningSocket(port, **kwargs)
        socket.wait_queue.tracer = self.tracer
        binding.group.add(socket)
        return socket

    def group_for(self, port: int) -> ReuseportGroup:
        binding = self.bindings.get(port)
        if binding is None or binding.group is None:
            raise KeyError(f"port {port} has no reuseport group")
        return binding.group

    def unbind_socket(self, socket: ListeningSocket) -> None:
        """Remove a dead worker's socket (process exit)."""
        binding = self.bindings.get(socket.port)
        if binding is None:
            return
        if binding.group is not None and socket in binding.group.sockets:
            binding.group.remove(socket)
        elif binding.shared is socket:
            del self.bindings[socket.port]
        socket.close()

    # -- data path --------------------------------------------------------
    def connect(self, connection: Connection) -> bool:
        """Handle an incoming SYN: select socket, handshake, enqueue.

        Returns False when the connection is refused (unbound port or
        backlog overflow); the connection is marked REFUSED.
        """
        tracer = self.tracer
        if tracer is not None:
            # Scope the synchronous SYN chain (reuseport selection,
            # accept-queue wake, epoll callback) to this connection's id.
            with tracer.ctx.scope(conn=connection.id):
                tracer.instant("conn.syn", "net", port=connection.port,
                               tenant=connection.tenant_id)
                accepted = self._connect(connection)
                if not accepted:
                    tracer.instant("conn.refused", "net",
                                   reason=connection.reset_reason)
                return accepted
        return self._connect(connection)

    def _connect(self, connection: Connection) -> bool:
        self.total_syns += 1
        if self.nic is not None:
            self.nic.receive(connection.four_tuple)
            if self.nic.sample_loss():
                # SYN dropped at the NIC (loss-burst fault): the client sees
                # a refused connection and may retry via its reset handling.
                connection.state = ConnState.REFUSED
                connection.reset_reason = "syn lost (nic)"
                self.total_refused += 1
                return False
        binding = self.bindings.get(connection.port)
        socket: Optional[ListeningSocket] = None
        if binding is not None:
            if binding.group is not None:
                socket = binding.group.select(connection.four_tuple)
            elif binding.shared is not None and not binding.shared.closed:
                socket = binding.shared
        if socket is None:
            connection.state = ConnState.REFUSED
            connection.reset_reason = "port not bound"
            self.total_refused += 1
            return False
        connection.state = ConnState.ESTABLISHED
        connection.established_time = self.env.now + self.handshake_delay
        if self.handshake_delay > 0:
            self.env.schedule_callback(
                self.handshake_delay,
                lambda: self._finish_handshake(connection, socket))
            return True
        return self._finish_handshake(connection, socket)

    def _finish_handshake(self, connection: Connection,
                          socket: ListeningSocket) -> bool:
        tracer = self.tracer
        if tracer is not None and "conn" not in tracer.ctx.current:
            # Delayed handshakes fire from a callback outside connect()'s
            # scope; re-establish the connection context for the wake chain.
            with tracer.ctx.scope(conn=connection.id):
                return self._enqueue_handshake(connection, socket)
        return self._enqueue_handshake(connection, socket)

    def _enqueue_handshake(self, connection: Connection,
                           socket: ListeningSocket) -> bool:
        if not socket.enqueue(connection):
            connection.state = ConnState.REFUSED
            connection.reset_reason = "accept queue overflow"
            self.total_refused += 1
            return False
        self.total_established += 1
        return True

    def deliver(self, connection: Connection, request: Request) -> None:
        """Client data arrives on an established connection."""
        if self.nic is not None:
            self.nic.receive(connection.four_tuple)
            if self.nic.sample_loss():
                # Request data dropped at the NIC: it never reaches the
                # socket, as if the client's send were lost on the wire.
                return
        request.tenant_id = connection.tenant_id
        tracer = self.tracer
        if tracer is None:
            connection.deliver_request(request, self.env.now)
            return
        rid = tracer.request_id(request)
        with tracer.ctx.scope(conn=connection.id, request=rid):
            tracer.instant("request.arrival", "net", n_events=request.n_events,
                           size=request.size_bytes)
            connection.deliver_request(request, self.env.now)
