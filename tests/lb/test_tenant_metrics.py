"""Tests for per-tenant metrics, tenant_ids mapping, and 499 timeouts."""

import hashlib
import struct
import tracemalloc

import pytest

from repro.experiments import isolation
from repro.experiments.common import run_spec
from repro.kernel import Connection, FourTuple, Request
from repro.lb import LBServer, NotificationMode
from repro.lb.metrics import DeviceMetrics
from repro.sim import Environment, RngRegistry
from repro.workloads import (FixedFactory, TrafficGenerator, WorkloadSpec,
                             build_case_workload)


class TestTenantLatencies:
    def test_breakdown_by_tenant(self):
        metrics = DeviceMetrics(Environment())
        metrics.register_worker(0)
        metrics.record_request(0.010, 0, tenant_id=1)
        metrics.record_request(0.020, 0, tenant_id=1)
        metrics.record_request(0.500, 0, tenant_id=2)
        assert metrics.tenant_latencies[1].mean == pytest.approx(0.015)
        assert metrics.tenant_latencies[2].mean == pytest.approx(0.5)

    def test_probe_tenant_excluded(self):
        metrics = DeviceMetrics(Environment())
        metrics.record_request(0.001, 0, tenant_id=-1)
        assert metrics.tenant_latencies == {}

    def test_end_to_end_tenant_tagging(self):
        env = Environment()
        server = LBServer(env, n_workers=2, ports=[443],
                          mode=NotificationMode.REUSEPORT)
        server.start()
        conn = Connection(FourTuple(1, 2, 3, 443), tenant_id=9,
                          created_time=0.0)
        server.connect(conn)
        env.schedule_callback(
            0.01, lambda: server.deliver(conn, Request(tenant_id=9)))
        env.run(until=0.2)
        assert 9 in server.metrics.tenant_latencies


def _fingerprint(view):
    """Per tenant, in key order: its sample count and a digest of the
    exact bits of its latencies, in order."""
    return [(tenant, len(samples), hashlib.sha256(b"".join(
        struct.pack("<d", value) for value in samples.values)).hexdigest()[:16])
        for tenant, samples in view.items()]


class TestTenantView:
    """``tenant_latencies`` is rebuilt from one latency column and one
    tenant column; the fingerprints were taken when every latency was
    also stored in a per-tenant list as it completed."""

    @pytest.mark.pin
    def test_hermes_case1_four_ports(self, pin):
        spec = build_case_workload("case1", "medium", n_workers=4,
                                   duration=0.3,
                                   ports=(443, 444, 445, 446))
        result = run_spec(NotificationMode.HERMES, spec, n_workers=4,
                          seed=7, keep_server=True)
        pin("tenant_view/hermes_case1_four_ports",
            _fingerprint(result.server.metrics.tenant_latencies))

    @pytest.mark.pin
    def test_isolation_cell(self, monkeypatch, pin):
        built = []

        class Capturing(LBServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(isolation, "LBServer", Capturing)
        isolation.run_isolation(NotificationMode.HERMES, n_workers=2,
                                duration=0.3)
        pin("tenant_view/isolation_cell",
            _fingerprint(built[0].metrics.tenant_latencies))

    def test_view_is_read_only(self):
        metrics = DeviceMetrics(Environment())
        metrics.record_request(0.010, 0, tenant_id=1)
        with pytest.raises(TypeError):
            metrics.tenant_latencies[2] = metrics.tenant_latencies[1]

    def test_each_latency_stored_once(self):
        metrics = DeviceMetrics(Environment())
        metrics.register_worker(0)
        n = 50_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                metrics.record_request(i * 1e-6, 0, tenant_id=i % 4)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 8 B of latency + 4 B of tenant id, plus the arrays' headroom.
        assert held / n <= 13.0


class TestTenantIds:
    def _gen(self, spec):
        env = Environment()
        server = LBServer(env, n_workers=2, ports=list(spec.ports),
                          mode=NotificationMode.REUSEPORT)
        server.start()
        gen = TrafficGenerator(env, server, RngRegistry(3).stream("t"),
                               spec)
        return env, server, gen

    def test_custom_tenant_ids_tag_requests(self):
        spec = WorkloadSpec(name="t", conn_rate=100.0, duration=0.5,
                            factory=FixedFactory((0.0005,)),
                            ports=(443, 444), tenant_ids=(7, 8))
        env, server, gen = self._gen(spec)
        gen.start()
        env.run(until=1.0)
        assert set(server.metrics.tenant_latencies) <= {7, 8}
        assert server.metrics.tenant_latencies

    def test_default_ids_are_port_indices(self):
        spec = WorkloadSpec(name="t", conn_rate=100.0, duration=0.5,
                            factory=FixedFactory((0.0005,)),
                            ports=(443, 444))
        env, server, gen = self._gen(spec)
        gen.start()
        env.run(until=1.0)
        assert set(server.metrics.tenant_latencies) <= {0, 1}

    def test_mismatched_ids_rejected(self):
        spec = WorkloadSpec(name="t", conn_rate=100.0, duration=0.5,
                            factory=FixedFactory((0.0005,)),
                            ports=(443, 444), tenant_ids=(7,))
        env, server, gen = self._gen(spec)
        with pytest.raises(ValueError):
            gen.open_connection()


class TestClientTimeouts:
    def _run(self, service, deadline):
        env = Environment()
        server = LBServer(env, n_workers=1, ports=[443],
                          mode=NotificationMode.REUSEPORT)
        server.start()
        spec = WorkloadSpec(name="t", conn_rate=50.0, duration=1.0,
                            factory=FixedFactory((service,)),
                            ports=(443,), request_timeout=deadline)
        gen = TrafficGenerator(env, server, RngRegistry(5).stream("t"),
                               spec)
        gen.start()
        env.run(until=3.0)
        return gen

    def test_fast_requests_no_timeouts(self):
        gen = self._run(service=0.0005, deadline=0.5)
        assert gen.stats.timeouts_499 == 0
        assert gen.stats.requests_sent > 20

    def test_slow_requests_all_timeout(self):
        # 60 ms of service at 50/s on one core = overload: everything
        # blows the 20 ms deadline.
        gen = self._run(service=0.060, deadline=0.020)
        assert gen.stats.timeouts_499 == gen.stats.requests_sent

    def test_no_deadline_no_timeouts(self):
        gen = self._run(service=0.060, deadline=None)
        assert gen.stats.timeouts_499 == 0
