"""The traffic generator: open-loop clients driving an LB device.

A :class:`TrafficGenerator` is the one client driver: it opens every
synthetic connection (sampling 4-tuples, tenants, ports, or taking them
from a listed arrival), delivers request data on it, closes it, and
optionally reconnects when the LB resets a connection (the client-retry
behaviour behind the paper's service-degradation and crash-blast-radius
discussions).

Arrivals are open-loop: they occur at their own pace regardless of how
the LB keeps up, which is what exposes overload behaviour (closed-loop
clients would implicitly throttle and mask it).  :func:`arrivals` is a
spec's arrival stream materialized as a list the generator can
:meth:`~TrafficGenerator.replay` at any rate — the §6.2 "collect and
replay" workflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Optional, Protocol, Sequence, Tuple

from .._sum import left_sum
from ..kernel.hash import FourTuple
from ..kernel.tcp import Connection, ConnState, Request
from ..sim.engine import Environment
from ..sim.rng import RngRegistry, Stream

__all__ = ["TrafficGenerator", "WorkloadSpec", "ClientStats", "arrivals"]

#: The LB device's own address in synthetic 4-tuples.
LB_IP = 0xC0A80001

#: One listed arrival: (time, 4-tuple, per-connection seed).
Arrival = Tuple[float, FourTuple, int]


def client_four_tuple(rng: Stream, n_client_ips: int,
                      port: int) -> FourTuple:
    """A synthetic client's 4-tuple to ``LB_IP:port``: the source IP
    (one of ``n_client_ips`` from 10.0.0.0), then the source port."""
    return FourTuple(0x0A000000 + rng.randrange(n_client_ips),
                     rng.randrange(1024, 65535), LB_IP, port)


class _Target(Protocol):
    """What the generator drives (an LBServer or a Fleet)."""

    def connect(self, connection: Connection) -> bool: ...  # pragma: no cover

    def deliver(self, connection: Connection,
                request: Request) -> None: ...  # pragma: no cover


@dataclass
class WorkloadSpec:
    """One workload: arrival process + per-connection behaviour."""

    name: str
    #: New connections per second (CPS).
    conn_rate: float
    #: Generator keeps opening connections until this sim time.
    duration: float
    #: Builds request payloads (RequestFactory/FixedFactory compatible).
    factory: object
    #: Destination ports, sampled per connection via ``tenant_weights``.
    ports: Sequence[int] = (443,)
    #: Relative traffic share per port (None = uniform).
    tenant_weights: Optional[Sequence[float]] = None
    #: Tenant id per port (None = the port's index).  Lets multiple
    #: generators share a device without colliding in per-tenant metrics.
    tenant_ids: Optional[Sequence[int]] = None
    #: Requests sent on each connection.
    requests_per_conn: int = 1
    #: Mean gap between requests on one connection (exponential); 0 sends
    #: them back-to-back.
    request_gap_mean: float = 0.0
    #: Distinct client source IPs (small values create heavy hitters that
    #: collide in the reuseport hash).
    n_client_ips: int = 65536
    #: Reconnect (once) when the LB resets the connection.
    reconnect_on_reset: bool = False
    #: Delay before the client sends its first request after SYN.
    first_request_delay: float = 0.0
    #: Client-side request deadline: a request not completed within this
    #: window counts as a 499 (client closed / timed out), the failure
    #: class the paper's probe SLA maps to.  None = patient clients.
    request_timeout: Optional[float] = None


class PortPicker:
    """A spec's per-connection ``(tenant id, port)`` pick.

    Calling it draws one ``random()`` and picks a port weighted by
    ``tenant_weights``; ``tenant_of`` maps each port to its tenant id.
    """

    def __init__(self, spec: WorkloadSpec):
        ports = spec.ports
        weights = (list(spec.tenant_weights) if spec.tenant_weights
                   else [1.0] * len(ports))
        if len(weights) != len(ports):
            raise ValueError("tenant_weights must match ports")
        ids = spec.tenant_ids if spec.tenant_ids is not None \
            else range(len(ports))
        if len(ids) != len(ports):
            raise ValueError("tenant_ids must match ports")
        total = left_sum(weights)
        acc, cumulative = 0.0, []
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        self._choices = list(zip(cumulative, zip(ids, ports)))
        self.tenant_of = {port: tenant for tenant, port in zip(ids, ports)}

    def __call__(self, rng: Stream) -> Tuple[int, int]:
        u = rng.random()
        for threshold, choice in self._choices:
            if u <= threshold:
                return choice
        return self._choices[-1][1]


def arrivals(spec: WorkloadSpec, seed: int) -> Iterator[Arrival]:
    """The spec's arrival stream, drawn from
    ``RngRegistry(seed).stream("traffic")``.

    Per arrival, in this order: the inter-arrival gap, the port pick,
    the source IP and port, and a 64-bit per-connection seed.  Times are
    the running float sum of the gaps; the stream ends at the first gap
    that would pass ``spec.duration`` (none at a rate <= 0).  No tenant
    is listed: :meth:`TrafficGenerator.open_connection` takes it from
    the port.
    """
    rng = RngRegistry(seed).stream("traffic")
    pick_port = PortPicker(spec)
    rate = spec.conn_rate
    now = 0.0
    while rate > 0:
        gap = rng.expovariate(rate)
        if now + gap > spec.duration:
            return
        now += gap
        _, port = pick_port(rng)
        yield (now, client_four_tuple(rng, spec.n_client_ips, port),
               rng.getrandbits(64))


@dataclass
class ClientStats:
    """Client-observed outcomes."""

    connections_opened: int = 0
    connections_refused: int = 0
    connections_reset: int = 0
    reconnects: int = 0
    requests_sent: int = 0
    #: Requests that missed the client deadline (HTTP 499 territory).
    timeouts_499: int = 0


class TrafficGenerator:
    """Drives one workload spec against a target LB.

    :meth:`start` draws Poisson arrivals and every per-connection value
    from the shared ``rng``; :meth:`replay` opens a given list of
    arrivals, each client drawing from its own ``Stream(conn_seed)``, and
    needs no ``rng``.
    """

    def __init__(self, env: Environment, target: _Target,
                 rng: Optional[Stream], spec: WorkloadSpec):
        self.env = env
        self.target = target
        self.rng = rng
        self.spec = spec
        self.stats = ClientStats()
        self._pick_port = PortPicker(spec)

    # -- public API -------------------------------------------------------
    def start(self) -> None:
        """Begin opening connections per the spec's arrival process."""
        self.env.process(self._poisson(), name=f"gen:{self.spec.name}")

    def replay(self, arrivals: Iterable[Arrival]) -> None:
        """Open a connection at each listed ``(time, four_tuple,
        conn_seed)``; all are scheduled now, so call this at time 0."""
        if self.spec.reconnect_on_reset:
            raise ValueError(
                "reconnect_on_reset cannot replay listed arrivals: the "
                "retry would re-enter the global arrival stream")
        schedule = self.env.schedule_callback
        for time, four_tuple, conn_seed in arrivals:
            schedule(time, partial(self.open_connection, four_tuple,
                                   conn_seed))

    def open_connection(self, four_tuple: Optional[FourTuple] = None,
                        conn_seed: Optional[int] = None) -> Connection:
        """Open one connection and spawn its client process.

        With no arguments the port, tenant and 4-tuple come from the
        shared stream, and so does everything the client draws.  A listed
        arrival passes its 4-tuple and seed: its tenant is its port's,
        and its client draws from ``Stream(conn_seed)``.
        """
        if four_tuple is None:
            tenant_id, port = self._pick_port(self.rng)
            four_tuple = client_four_tuple(self.rng, self.spec.n_client_ips,
                                           port)
        else:
            tenant_id = self._pick_port.tenant_of[four_tuple.dst_port]
        conn = Connection(four_tuple, tenant_id=tenant_id,
                          created_time=self.env.now)
        rng = self.rng if conn_seed is None else Stream(conn_seed)
        self._connect(conn, rng, self.spec.requests_per_conn)
        return conn

    # -- arrivals and client behaviour ------------------------------------
    def _connect(self, conn: Connection, rng: Stream, n_requests: int,
                 is_retry: bool = False) -> None:
        """Count ``conn`` as opened and connect it; if the target accepts
        it, start the client that sends its ``n_requests``."""
        self.stats.connections_opened += 1
        if not self.target.connect(conn):
            self.stats.connections_refused += 1
            return
        name = f"client:{conn.id}:retry" if is_retry else f"client:{conn.id}"
        self.env.process(self._client(conn, rng, n_requests, is_retry),
                         name=name)

    def _poisson(self):
        """Poisson arrivals at ``conn_rate`` until ``duration`` (none at a
        rate <= 0)."""
        env = self.env
        rate = float(self.spec.conn_rate)
        until = self.spec.duration
        if rate <= 0:
            return
        while env.now < until:
            yield env.timeout(self.rng.expovariate(rate))
            if env.now >= until:
                return
            self.open_connection()

    def _client(self, conn: Connection, rng: Stream, n_requests: int,
                is_retry: bool = False):
        spec = self.spec
        build = spec.factory.build
        deliver = self.target.deliver
        stats = self.stats
        timeout = spec.request_timeout
        gap_mean = spec.request_gap_mean
        # A gap follows every request but the last, when gaps are on.
        last = n_requests - 1 if gap_mean > 0 else -1
        dead = (ConnState.RESET, ConnState.REFUSED)
        tenant_id = conn.tenant_id
        if spec.first_request_delay > 0:
            yield spec.first_request_delay  # direct timer
        for i in range(n_requests):
            if conn.state in dead:
                self._on_reset(conn, n_requests - i, is_retry)
                return
            request = build(rng, tenant_id)
            deliver(conn, request)
            stats.requests_sent += 1
            if timeout is not None:
                self._arm_timeout(request, timeout)
            if i < last:
                # Direct timer: the RNG draw order and the heap key are
                # identical to the env.timeout(...) form.
                yield rng.expovariate(1.0 / gap_mean)
        if conn.state in dead:
            self._on_reset(conn, 0, is_retry)
            return
        conn.client_close()

    def _arm_timeout(self, request: Request, deadline: float) -> None:
        def check():
            if (request.completed_time < 0
                    or request.completed_time - request.arrival_time
                    > deadline):
                self.stats.timeouts_499 += 1

        self.env.schedule_callback(deadline, check)

    def _on_reset(self, conn: Connection, remaining: int,
                  is_retry: bool) -> None:
        self.stats.connections_reset += 1
        if self.spec.reconnect_on_reset and not is_retry and remaining > 0:
            self.stats.reconnects += 1
            fresh = Connection(
                client_four_tuple(self.rng, self.spec.n_client_ips,
                                  conn.port),
                tenant_id=conn.tenant_id, created_time=self.env.now)
            self._connect(fresh, self.rng, remaining, is_retry=True)
