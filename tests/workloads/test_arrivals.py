"""Tests for the generator's open-loop Poisson arrival process and for
the materialized arrival stream, :func:`arrivals`."""

import pytest

from repro.sim import Environment, RngRegistry
from repro.workloads import (FixedFactory, TrafficGenerator, WorkloadSpec,
                             arrivals)


class RefusingTarget:
    """Records when each connection arrives and refuses it, so no client
    process runs and every arrival is one ``connect`` call."""

    def __init__(self, env):
        self.env = env
        self.hits = []

    def connect(self, connection):
        self.hits.append(self.env.now)
        return False

    def deliver(self, connection, request):  # pragma: no cover
        raise AssertionError("a refused connection sends nothing")


def poisson_hits(rate, duration, run_until):
    env = Environment()
    target = RefusingTarget(env)
    spec = WorkloadSpec(name="arrivals", conn_rate=rate, duration=duration,
                        factory=FixedFactory((0.0005,)))
    gen = TrafficGenerator(env, target, RngRegistry(21).stream("arrivals"),
                           spec)
    gen.start()
    env.run(until=run_until)
    assert gen.stats.connections_opened == len(target.hits)
    return target.hits


class TestPoisson:
    def test_rate_approximately_honored(self):
        hits = poisson_hits(rate=1000.0, duration=2.0, run_until=2.5)
        assert len(hits) == pytest.approx(2000, rel=0.15)

    def test_stops_at_until(self):
        hits = poisson_hits(rate=500.0, duration=1.0, run_until=3.0)
        assert hits and all(t < 1.0 for t in hits)

    def test_zero_rate_no_arrivals(self):
        assert poisson_hits(rate=0.0, duration=1.0, run_until=2.0) == []
        spec = WorkloadSpec(name="idle", conn_rate=0.0, duration=1.0,
                            factory=FixedFactory((0.0005,)))
        assert list(arrivals(spec, 21)) == []


class Sink:
    """Accepts every connection and records each delivery with it."""

    def __init__(self):
        self.conns = []
        self.requests = []

    def connect(self, connection):
        self.conns.append(connection)
        return True

    def deliver(self, connection, request):
        self.requests.append((connection, request))


class TestSpine:
    @staticmethod
    def _replay(**kw):
        spec = WorkloadSpec(name="spec", conn_rate=500.0, duration=1.0,
                            factory=FixedFactory((0.0005,)),
                            ports=(443, 444), **kw)
        env = Environment()
        sink = Sink()
        TrafficGenerator(env, sink, None, spec).replay(arrivals(spec, 29))
        env.run(until=2.0)
        return sink

    def test_tenant_weights_respected(self):
        conns = self._replay(tenant_weights=[0.9, 0.1]).conns
        on_443 = sum(c.four_tuple.dst_port == 443 for c in conns)
        on_444 = sum(c.four_tuple.dst_port == 444 for c in conns)
        assert on_443 > 5 * on_444 > 0

    def test_connections_carry_the_ports_tenant_id(self):
        sink = self._replay(tenant_ids=(7, 9))
        tenant_of = {443: 7, 444: 9}
        assert {c.tenant_id for c in sink.conns} == {7, 9}
        for conn in sink.conns:
            assert conn.tenant_id == tenant_of[conn.four_tuple.dst_port]
        assert len(sink.requests) == len(sink.conns)
        for conn, request in sink.requests:
            assert request.tenant_id == conn.tenant_id
