"""Tests for the generator's open-loop Poisson arrival process."""

import pytest

from repro.sim import Environment, RngRegistry
from repro.workloads import FixedFactory, TrafficGenerator, WorkloadSpec


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


def arrivals(rate, duration, run_until):
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
        hits = arrivals(rate=1000.0, duration=2.0, run_until=2.5)
        assert len(hits) == pytest.approx(2000, rel=0.15)

    def test_stops_at_until(self):
        hits = arrivals(rate=500.0, duration=1.0, run_until=3.0)
        assert hits and all(t < 1.0 for t in hits)

    def test_zero_rate_no_arrivals(self):
        assert arrivals(rate=0.0, duration=1.0, run_until=2.0) == []
