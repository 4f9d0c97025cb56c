"""The traffic generator: open-loop clients driving an LB device.

A :class:`TrafficGenerator` owns client-side state: it opens connections
(sampling 4-tuples, tenants, ports), delivers request data on them, closes
them, and optionally reconnects when the LB resets a connection (the
client-retry behaviour behind the paper's service-degradation and
crash-blast-radius discussions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

from ..kernel.hash import FourTuple
from ..kernel.tcp import Connection, ConnState, Request
from ..sim.engine import Environment, Interrupt
from ..sim.rng import Stream
from .arrivals import PoissonArrivals

__all__ = ["TrafficGenerator", "WorkloadSpec", "ClientStats"]

#: The LB device's own address in synthetic 4-tuples.
LB_IP = 0xC0A80001


class _Target(Protocol):
    """What the generator drives (an LBServer or a cluster frontend)."""

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
    """Drives one workload spec against a target LB."""

    def __init__(self, env: Environment, target: _Target, rng: Stream,
                 spec: WorkloadSpec):
        self.env = env
        self.target = target
        self.rng = rng
        self.spec = spec
        self.stats = ClientStats()
        self._arrivals: Optional[PoissonArrivals] = None
        self._cumulative_weights = self._build_weights()

    def _build_weights(self) -> List[float]:
        spec = self.spec
        weights = (list(spec.tenant_weights) if spec.tenant_weights
                   else [1.0] * len(spec.ports))
        if len(weights) != len(spec.ports):
            raise ValueError("tenant_weights must match ports")
        total = sum(weights)
        acc, cumulative = 0.0, []
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        return cumulative

    def _tenant_for(self, index: int) -> int:
        ids = self.spec.tenant_ids
        if ids is None:
            return index
        if len(ids) != len(self.spec.ports):
            raise ValueError("tenant_ids must match ports")
        return ids[index]

    def _pick_port(self) -> Tuple[int, int]:
        """(tenant id, port) weighted by tenant share."""
        u = self.rng.random()
        for index, threshold in enumerate(self._cumulative_weights):
            if u <= threshold:
                return self._tenant_for(index), self.spec.ports[index]
        last = len(self.spec.ports) - 1
        return self._tenant_for(last), self.spec.ports[last]

    def _four_tuple(self, port: int) -> FourTuple:
        src_ip = 0x0A000000 + self.rng.randrange(self.spec.n_client_ips)
        src_port = self.rng.randrange(1024, 65535)
        return FourTuple(src_ip, src_port, LB_IP, port)

    # -- public API -------------------------------------------------------
    def start(self) -> None:
        """Begin opening connections per the spec's arrival process."""
        self._arrivals = PoissonArrivals(
            self.env, self.rng, self.spec.conn_rate,
            sink=lambda _i: self.open_connection(),
            until=self.spec.duration, name=f"gen:{self.spec.name}")

    def stop(self) -> None:
        if self._arrivals is not None:
            self._arrivals.stop()

    def open_connection(self, tenant_id: Optional[int] = None,
                        port: Optional[int] = None,
                        requests: Optional[int] = None) -> Connection:
        """Open one connection and spawn its client process."""
        if port is None or tenant_id is None:
            tenant_id, port = self._pick_port()
        conn = Connection(self._four_tuple(port), tenant_id=tenant_id,
                          created_time=self.env.now)
        self.stats.connections_opened += 1
        accepted = self.target.connect(conn)
        if not accepted:
            self.stats.connections_refused += 1
            return conn
        n = requests if requests is not None else self.spec.requests_per_conn
        self.env.process(self._client(conn, n), name=f"client:{conn.id}")
        return conn

    # -- client behaviour -------------------------------------------------
    def _client(self, conn: Connection, n_requests: int,
                is_retry: bool = False):
        spec = self.spec
        rng = self.rng
        build = spec.factory.build
        deliver = self.target.deliver
        stats = self.stats
        timeout = spec.request_timeout
        gap_mean = spec.request_gap_mean
        # A gap follows every request but the last, when gaps are on.
        last = n_requests - 1 if gap_mean > 0 else -1
        dead = (ConnState.RESET, ConnState.REFUSED)
        tenant_id = conn.tenant_id
        try:
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
        except Interrupt:
            return

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
            fresh = Connection(self._four_tuple(conn.port),
                               tenant_id=conn.tenant_id,
                               created_time=self.env.now)
            self.stats.connections_opened += 1
            if self.target.connect(fresh):
                self.env.process(self._client(fresh, remaining, is_retry=True),
                                 name=f"client:{fresh.id}:retry")
            else:
                self.stats.connections_refused += 1
