"""Smoke tests for the experiment harnesses at reduced scale.

Full-scale shape assertions are each experiment's claims
(``tests/test_claims.py``); here we verify every
harness runs, returns well-formed results, and preserves its key invariant
at small scale.
"""

import pytest

from repro.experiments import table1, table2, table4, table5
from repro.experiments import fig3, fig7, fig12, fig14, fig15, figa4, figa5
from repro.experiments import sec7, appc
from repro.experiments.common import run_case_cell
from repro.lb import NotificationMode


class TestCommon:
    def test_run_case_cell_result_shape(self):
        result = run_case_cell(NotificationMode.HERMES, "case1", "light",
                               n_workers=2, duration=0.5)
        assert result.mode == "hermes"
        assert result.completed > 0
        assert result.avg_ms > 0
        assert len(result.cpu_utils) == 2
        assert result.server is None  # detached by default

    def test_keep_server(self):
        result = run_case_cell(NotificationMode.HERMES, "case1", "light",
                               n_workers=2, duration=0.3, keep_server=True)
        assert result.server is not None
        assert result.server.groups

    def test_same_seed_same_traffic(self):
        a = run_case_cell(NotificationMode.REUSEPORT, "case1", "light",
                          n_workers=2, duration=0.5, seed=9)
        b = run_case_cell(NotificationMode.REUSEPORT, "case1", "light",
                          n_workers=2, duration=0.5, seed=9)
        assert a.completed == b.completed
        assert a.avg_ms == pytest.approx(b.avg_ms)


class TestTable1:
    def test_quantiles_within_tolerance(self):
        rows = table1.run_table1(n_samples=20000)
        assert len(rows) == 4
        for row in rows:
            assert row.max_relative_error() < 0.15

    def test_render(self):
        out = table1.render_table1(table1.run_table1(n_samples=2000))
        assert "Region1" in out


class TestTable2:
    def test_exclusive_imbalance_positive(self):
        devices = table2.run_table2(n_devices=2, n_workers=4, duration=1.0)
        assert len(devices) == 2
        assert all(d.max_minus_min >= 0 for d in devices)
        summary = table2.region_summary(devices)
        assert summary.device == "region-avg"
        out = table2.render_table2(devices)
        assert "region-avg" in out


class TestFig3:
    def test_exclusive_amplifies_surge(self):
        result = fig3.run_fig3(NotificationMode.EXCLUSIVE, n_workers=4,
                               n_connections=100)
        assert result.surge_p999_ms > 3 * result.normal_p999_ms
        assert max(result.conns_per_worker) > 50  # concentration
        assert result.conn_series  # time series collected


class TestFig7:
    def test_cpu_more_imbalanced_than_nic(self):
        result = fig7.run_fig7(n_workers=4, duration=2.0, load="light")
        assert result.cpu_cov > result.nic_cov


class TestFig12:
    def test_peak_reduction_near_paper(self):
        result = fig12.run_fig12()
        assert 0.15 < result.peak_reduction < 0.25
        costs = [c for _, c in result.series]
        assert costs[0] == 1.0
        assert min(costs) < 0.85


class TestFig14:
    def test_point_fields(self):
        points = fig14.run_fig14(n_workers=2, duration=0.5,
                                 load_fractions=[0.5, 2.0])
        assert len(points) == 2
        for p in points:
            assert 0 <= p.pass_ratio <= 1
            assert p.scheduler_calls_per_sec > 0


class TestFig15:
    def test_sweep_runs(self):
        points = fig15.run_fig15(theta_ratios=(0.25, 4.0), n_workers=2,
                                 duration=1.0, seeds=(61,))
        assert len(points) == 2
        # More theta admits more workers.
        assert points[0].pass_ratio <= points[1].pass_ratio
        assert fig15.best_theta(points) in (0.25, 4.0)


class TestFigA4:
    def test_reuseport_shows_collision_pathology(self):
        r = figa4.run_figa4(NotificationMode.REUSEPORT)
        assert max(r.latency_t.values()) >= 5.0 - 0.2

    def test_hermes_bounds_queueing(self):
        r = figa4.run_figa4(NotificationMode.HERMES)
        b_latencies = [v for k, v in r.latency_t.items() if k != "a"]
        assert all(v <= 3.2 for v in b_latencies)
        assert r.workers_used == 3

    def test_all_requests_complete(self):
        for mode in (NotificationMode.EXCLUSIVE, NotificationMode.HERMES):
            r = figa4.run_figa4(mode)
            assert all(v > 0 for v in r.latency_t.values())


class TestFigA5:
    def test_long_tailed_rules(self):
        r = figa5.run_figa5(n_tenants=500)
        assert r.n_ports == 1000
        assert r.p99 > 2 * r.p50
        assert r.cov > 0.5


class TestSec7:
    def test_backend_rr(self):
        r = sec7.run_backend_rr(n_workers=16, n_servers=10,
                                requests_per_worker=3)
        assert r.imbalance_synchronized > 2.0
        assert r.imbalance_randomized < r.imbalance_synchronized

    def test_connection_reuse(self):
        r = sec7.run_connection_reuse(n_workers=8, n_servers=4,
                                      n_requests=500)
        assert r.handshakes_shared_pool < r.handshakes_per_worker_pools
        assert r.added_latency_shared < r.added_latency_per_worker

    def test_crash_blast_contrast(self):
        exclusive = sec7.run_crash_blast(NotificationMode.EXCLUSIVE,
                                         n_workers=4, n_connections=100)
        hermes = sec7.run_crash_blast(NotificationMode.HERMES,
                                      n_workers=4, n_connections=100)
        assert exclusive.blast_fraction > 2 * hermes.blast_fraction


class TestAppC:
    def test_locality_balance_tradeoff_endpoints(self):
        reuseport_like = appc.run_group_locality(1, n_workers=4,
                                                 n_ports=8, duration=1.0)
        hermes_like = appc.run_group_locality(4, n_workers=4,
                                              n_ports=8, duration=1.0)
        assert reuseport_like.locality_score >= hermes_like.locality_score
        assert hermes_like.balance_score >= reuseport_like.balance_score

    def test_wide_device(self):
        r = appc.run_wide_device(n_workers=80, duration=0.5)
        assert r.n_groups == 2
        assert r.all_groups_used
        assert r.completed > 0


class TestTable4:
    def test_hermes_never_impacted(self):
        analysis = table4.run_table4()
        for region in analysis.impacted_share:
            assert analysis.impacted_share[region]["hermes"] == 0.0
            assert analysis.impacted_share[region]["exclusive"] > 0

    def test_average_mix_sums_to_100(self):
        analysis = table4.run_table4()
        assert sum(analysis.average_mix.values()) == pytest.approx(100.0,
                                                                   abs=0.1)

    def test_render(self):
        out = table4.render_table4(table4.run_table4())
        assert "case3" in out


class TestPoolCapacity:
    def test_reuseport_strands_hermes_capacity_recovers(self):
        from repro.experiments.pool_capacity import run_pool_capacity
        from repro.core import HermesConfig

        reuseport = run_pool_capacity(NotificationMode.REUSEPORT,
                                      n_workers=4, pool_size=20)
        assert reuseport.stranded > 0
        assert reuseport.spare_slots > 0
        config = HermesConfig(
            filter_order=("time", "capacity", "conn", "event"))
        capacity = run_pool_capacity(NotificationMode.HERMES, n_workers=4,
                                     pool_size=20, config=config,
                                     label="hermes+capacity")
        assert capacity.stranded < reuseport.stranded
        assert capacity.capacity_utilization > 0.95


class TestIsolation:
    def test_hermes_beats_reuseport_for_small_tenant(self):
        from repro.experiments.isolation import run_isolation

        hermes = run_isolation(NotificationMode.HERMES, n_workers=4,
                               duration=2.0)
        reuseport = run_isolation(NotificationMode.REUSEPORT, n_workers=4,
                                  duration=2.0)
        assert hermes.small_completed > 100
        assert hermes.small_p99_ms < reuseport.small_p99_ms
        assert hermes.small_timeouts_499 <= reuseport.small_timeouts_499


class TestTable5:
    def test_overhead_small_and_structured(self):
        rows = table5.run_table5(n_workers=2, duration=1.0)
        assert [r.load for r in rows] == ["light", "medium", "heavy"]
        for row in rows:
            assert 0 < row.total_pct < 5.0
            # The dispatcher is the cheapest component (paper's finding).
            assert row.dispatcher_pct <= row.syscall_pct
        out = table5.render_table5(rows)
        assert "Dispatcher" in out
