"""Tests for metric collection."""

import pytest

from repro.analysis import population_sd
from repro.lb.metrics import DeviceMetrics, WorkerMetrics
from repro.sim import Environment


class TestStddev:
    """The population SD behind ``cpu_sd`` and ``conn_sd``."""

    def test_empty_and_single(self):
        assert population_sd([]) == 0.0
        assert population_sd([5.0]) == 0.0

    def test_known_value(self):
        assert population_sd([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.0)

    def test_uniform_is_zero(self):
        assert population_sd([3.0] * 10) == 0.0


class TestDeviceMetrics:
    def test_record_request_updates_worker_and_device(self):
        env = Environment()
        metrics = DeviceMetrics(env)
        metrics.register_worker(0)
        metrics.register_worker(1)
        metrics.record_request(0.01, worker_id=0)
        metrics.record_request(0.02, worker_id=0)
        metrics.record_request(0.03, worker_id=1)
        assert metrics.requests_completed == 3
        assert metrics.workers[0].requests_completed == 2
        assert metrics.workers[1].requests_completed == 1
        assert metrics.avg_latency() == pytest.approx(0.02)

    def test_throughput_over_elapsed(self):
        env = Environment()
        metrics = DeviceMetrics(env)
        metrics.register_worker(0)
        for _ in range(10):
            metrics.record_request(0.001, worker_id=0)
        env._now = 2.0
        assert metrics.throughput() == pytest.approx(5.0)

    def test_summary_keys(self):
        env = Environment()
        metrics = DeviceMetrics(env)
        metrics.register_worker(0)
        env._now = 1.0
        summary = metrics.summary()
        for key in ("avg_ms", "p99_ms", "throughput_rps", "completed",
                    "failed", "cpu_sd", "conn_sd"):
            assert key in summary

    def test_record_failure(self):
        metrics = DeviceMetrics(Environment())
        metrics.record_failure()
        assert metrics.requests_failed == 1

    def test_record_for_unknown_worker_is_tolerated(self):
        metrics = DeviceMetrics(Environment())
        metrics.record_request(0.01, worker_id=99)
        assert metrics.requests_completed == 1

    def test_cpu_spread(self):
        env = Environment()
        metrics = DeviceMetrics(env)
        w0 = metrics.register_worker(0)
        w1 = metrics.register_worker(1)
        w0.cpu.begin()
        env._now = 1.0
        w0.cpu.end()
        env._now = 2.0
        spread = metrics.cpu_spread()
        assert spread == pytest.approx(0.5)


class TestWorkerMetrics:
    def test_connection_gauge(self):
        env = Environment()
        worker = WorkerMetrics(env, 0)
        worker.connections.increment()
        worker.connections.increment()
        worker.connections.decrement()
        assert worker.current_connections == 1
        assert worker.connections.peak == 2

    def test_time_weighted_average(self):
        env = Environment()
        worker = WorkerMetrics(env, 0)
        worker.connections.set(10)
        env._now = 1.0
        worker.connections.set(0)
        env._now = 2.0
        assert worker.connections.average() == pytest.approx(5.0)
