"""Tests for the traffic generator's client behaviour."""

import pytest

from repro.kernel import FourTuple, Request
from repro.lb import LBServer, NotificationMode
from repro.sim import Environment, RngRegistry
from repro.workloads import FixedFactory, TrafficGenerator, WorkloadSpec


def setup(spec_kwargs=None, server_kwargs=None, n_workers=2):
    env = Environment()
    server = LBServer(env, n_workers=n_workers, ports=[443, 444],
                      mode=NotificationMode.REUSEPORT,
                      **(server_kwargs or {}))
    server.start()
    defaults = dict(name="t", conn_rate=300.0, duration=1.0,
                    factory=FixedFactory((0.0005,)), ports=(443, 444))
    defaults.update(spec_kwargs or {})
    spec = WorkloadSpec(**defaults)
    gen = TrafficGenerator(env, server, RngRegistry(29).stream("gen"), spec)
    return env, server, gen


class TestBasicFlow:
    def test_connections_and_requests_flow(self):
        env, server, gen = setup()
        gen.start()
        env.run(until=2.0)
        assert gen.stats.connections_opened > 200
        assert gen.stats.requests_sent == gen.stats.connections_opened
        assert server.metrics.requests_completed == gen.stats.requests_sent

    def test_multiple_requests_per_conn(self):
        env, server, gen = setup({"requests_per_conn": 5,
                                  "request_gap_mean": 0.01,
                                  "conn_rate": 50.0})
        gen.start()
        env.run(until=2.5)
        assert gen.stats.requests_sent > 4 * gen.stats.connections_opened

    def test_connections_eventually_closed(self):
        env, server, gen = setup({"conn_rate": 100.0, "duration": 0.5})
        gen.start()
        env.run(until=2.0)
        assert sum(len(w.conns) for w in server.workers) == 0

    def test_tenant_weights_respected(self):
        env, server, gen = setup({"tenant_weights": [0.9, 0.1],
                                  "conn_rate": 500.0})
        gen.start()
        env.run(until=2.0)
        port_443 = server.stack.group_for(443)
        port_444 = server.stack.group_for(444)
        total_443 = sum(s.total_enqueued for s in port_443.sockets)
        total_444 = sum(s.total_enqueued for s in port_444.sockets)
        assert total_443 > 5 * total_444

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            setup({"tenant_weights": [1.0]})


class TestResetHandling:
    def test_reset_detected(self):
        env, server, gen = setup({"requests_per_conn": 10,
                                  "request_gap_mean": 0.1,
                                  "conn_rate": 40.0, "duration": 0.5})
        gen.start()

        def crash():
            server.crash_worker(0)
            server.detect_and_clean_worker(0)

        env.schedule_callback(0.6, crash)
        env.run(until=3.0)
        assert gen.stats.connections_reset > 0

    def test_reconnect_on_reset(self):
        env, server, gen = setup({"requests_per_conn": 10,
                                  "request_gap_mean": 0.1,
                                  "conn_rate": 40.0, "duration": 0.5,
                                  "reconnect_on_reset": True})
        gen.start()

        def crash():
            server.crash_worker(0)
            server.detect_and_clean_worker(0)

        env.schedule_callback(0.6, crash)
        env.run(until=3.0)
        assert gen.stats.reconnects > 0
        assert gen.stats.reconnects <= gen.stats.connections_reset


class TestSourceDiversity:
    def test_client_ip_pool_size(self):
        env, server, gen = setup({"n_client_ips": 4, "conn_rate": 200.0})
        gen.start()
        env.run(until=1.5)
        # With 4 client IPs, tuples reuse a tiny address set.
        ips = set()
        for worker in server.workers:
            for conn in worker.conns.values():
                ips.add(conn.four_tuple.src_ip)
        # All observed IPs from the 4-address pool.
        assert len(ips) <= 4


class DrawingFactory:
    """Each request's service time is a draw from the client's stream."""

    def build(self, rng, tenant_id=0):
        return Request(tenant_id=tenant_id, event_times=(rng.random(),))


class RecordingTarget:
    """Accepts every connection and records each delivery."""

    def __init__(self, env):
        self.env = env
        self.sent = []

    def connect(self, connection):
        return True

    def deliver(self, connection, request):
        self.sent.append((self.env.now, connection.four_tuple,
                          request.event_times))


def tup(i):
    return FourTuple(0x0A000000 + i, 40000 + i, 0xC0A80001, 443)


class TestReplay:
    @staticmethod
    def _replay(arrivals, **spec_kwargs):
        env = Environment()
        target = RecordingTarget(env)
        spec = WorkloadSpec(name="listed", conn_rate=0.0, duration=1.0,
                            factory=DrawingFactory(), requests_per_conn=4,
                            request_gap_mean=0.02, **spec_kwargs)
        gen = TrafficGenerator(env, target, None, spec)
        gen.replay(arrivals)
        env.run(until=2.0)
        return gen, target.sent

    def test_record_behaves_the_same_among_others(self):
        record = (0.05, tup(1), 1234)
        _, alone = self._replay([record])
        gen, mixed = self._replay([(0.01, tup(2), 99), record,
                                   (0.05, tup(3), 7), (0.06, tup(4), 1234)])
        assert len(alone) == 4
        assert alone[0][0] == 0.05
        assert [s for s in mixed if s[1] == tup(1)] == alone
        assert gen.stats.connections_opened == 4
        assert gen.stats.requests_sent == len(mixed) == 16

    def test_reconnect_on_reset_refused(self):
        with pytest.raises(ValueError, match="reconnect_on_reset"):
            self._replay([(0.05, tup(1), 1)], reconnect_on_reset=True)
