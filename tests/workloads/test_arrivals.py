"""Tests for the arrival process."""

import pytest

from repro.sim import Environment, RngRegistry
from repro.workloads import PoissonArrivals


def rng():
    return RngRegistry(21).stream("arrivals")


class TestPoisson:
    def test_rate_approximately_honored(self):
        env = Environment()
        hits = []
        PoissonArrivals(env, rng(), rate=1000.0,
                        sink=lambda i: hits.append(env.now), until=2.0)
        env.run(until=2.5)
        assert len(hits) == pytest.approx(2000, rel=0.15)

    def test_stops_at_until(self):
        env = Environment()
        hits = []
        PoissonArrivals(env, rng(), rate=500.0,
                        sink=lambda i: hits.append(env.now), until=1.0)
        env.run(until=3.0)
        assert all(t <= 1.0 for t in hits)

    def test_zero_rate_no_arrivals(self):
        env = Environment()
        hits = []
        PoissonArrivals(env, rng(), rate=0.0,
                        sink=lambda i: hits.append(i), until=1.0)
        env.run(until=2.0)
        assert hits == []

    def test_stop_interrupts(self):
        env = Environment()
        hits = []
        arrivals = PoissonArrivals(env, rng(), rate=1000.0,
                                   sink=lambda i: hits.append(i))
        env.schedule_callback(0.5, arrivals.stop)
        env.run(until=2.0)
        assert len(hits) == pytest.approx(500, rel=0.25)

    def test_counter(self):
        env = Environment()
        arrivals = PoissonArrivals(env, rng(), rate=200.0,
                                   sink=lambda i: None, until=1.0)
        env.run(until=1.5)
        assert arrivals.count > 100
