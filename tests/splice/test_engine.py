"""The splice engine's per-request path on one hand-built spliced flow."""

from types import SimpleNamespace

from repro.kernel.hash import FourTuple
from repro.kernel.tcp import Connection, ConnState, Request
from repro.lb.metrics import DeviceMetrics
from repro.sim import Environment
from repro.splice import SpliceConfig
from repro.splice.engine import SpliceEngine, SplicePath
from repro.splice.sockmap import SockMap


def spliced_flow():
    env = Environment()
    device = DeviceMetrics(env)
    device.register_worker(0)
    engine = SpliceEngine(env, device, SockMap(8), SpliceConfig())
    conn = Connection(FourTuple(0x0A000001, 40000, 0xC0A80001, 443))
    conn.state = ConnState.ACCEPTED
    engine.sockmap.install(conn.id, 0)
    conn.splice = SplicePath(engine, conn, SimpleNamespace(worker_id=0))
    return env, engine, conn


class TestComplete:
    def test_fifo_completions_drain_the_inbox(self):
        env, engine, conn = spliced_flow()
        for size in (100, 200, 300):
            conn.deliver_request(Request(size_bytes=size), env.now)
        env.run()
        assert conn.inbox == []
        assert conn.requests_completed == 3
        assert engine.requests_forwarded == 3 and engine.conserved()
        assert engine.device.requests_completed == 3

    def test_request_behind_the_head_is_still_removed(self):
        env, engine, conn = spliced_flow()
        head, behind = Request(size_bytes=1), Request(size_bytes=2)
        conn.inbox.extend([head, behind])
        behind.arrival_time = 0.0
        path = conn.splice
        path.in_flight = 1
        engine._complete(path, behind, engine._lane(0))
        assert len(conn.inbox) == 1 and conn.inbox[0] is head
        assert conn.requests_completed == 1
        assert behind.completed_time == env.now

    def test_fin_tears_down_after_the_lane_drains(self):
        env, engine, conn = spliced_flow()
        conn.deliver_request(Request(size_bytes=500), env.now)
        conn.client_close()
        assert conn.state is ConnState.ACCEPTED  # a request is in flight
        env.run()
        assert conn.state is ConnState.CLOSED
        assert engine.flows_torn_down == 1 and len(engine.sockmap) == 0
        assert engine.requests_forwarded == 1 and engine.conserved()
