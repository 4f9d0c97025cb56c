"""Experiment checks that no tier-1 claim makes, read from the registry.

Every experiment runs the one way there is: ``get(name).run(seed,
overrides)``, at its ``SMOKE`` scale (``tests/test_contract.py``) or at
a smaller grid set through its declared tunables.  An assertion that a
claim listed in ``SMOKE_CLAIMS`` already checks at least as strictly is
not repeated here; the full-scale claims are ``tests/test_claims.py``.
"""

import pytest

from repro.cell import build_cell
from repro.experiments.common import run_case_cell
from repro.experiments.registry import get
from repro.experiments import sec7
from repro.lb import NotificationMode
from repro.workloads import build_case_workload
from tests.test_contract import SMOKE


def smoke(name):
    """``name``'s merged document at its tier-1 ``SMOKE`` scale."""
    return get(name).run(overrides=SMOKE[name])


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
        # 2000 samples (SMOKE) are too few for the P99 knots; 20000 are not.
        merged = get("table1").run(overrides={"n_samples": 20000})
        assert len(merged["rows"]) == 4
        verdict, = [c for c in get("table1").claims(merged)
                    if c.name == "four_regions_within_15pct_of_every_quantile"]
        assert verdict.holds, verdict.line()

    def test_render(self):
        assert "Region1" in smoke("table1")["rendered"]


class TestTable2:
    def test_exclusive_imbalance_positive(self):
        merged = smoke("table2")
        assert len(merged["devices"]) == SMOKE["table2"]["n_devices"]
        assert all(d["max_minus_min"] >= 0 for d in merged["devices"])
        assert "region-avg" in merged["rendered"]


class TestFig3:
    def test_exclusive_amplifies_surge(self):
        exclusive = smoke("fig3")["cells"]["exclusive"]
        assert exclusive["surge_p999_ms"] > 3 * exclusive["normal_p999_ms"]
        assert exclusive["conn_series"]  # time series collected


class TestFig7:
    def test_cpu_more_imbalanced_than_nic(self):
        rss = smoke("fig7")["cells"]["rss"]
        assert rss["cpu_cov"] > rss["nic_cov"]


class TestFig14:
    def test_point_fields(self):
        cells = smoke("fig14")["cells"]
        assert len(cells) == len(SMOKE["fig14"]["load_fractions"])
        for point in cells.values():
            assert 0 <= point["pass_ratio"] <= 1
            assert point["scheduler_calls_per_sec"] > 0


class TestFig15:
    def test_sweep_runs(self):
        merged = smoke("fig15")
        ratios = SMOKE["fig15"]["theta_ratios"]
        assert [p["theta_ratio"] for p in merged["points"]] == ratios
        assert merged["best_theta"] in ratios


class TestFigA5:
    def test_long_tailed_rules(self):
        # The tails are the rule_counts_long_tailed claim (P99 > 3 x P50,
        # CoV > 0.6); here only the port count.
        assert smoke("figa5")["n_ports"] == 2 * SMOKE["figa5"]["n_tenants"]


class TestSec7:
    """Backend RR and upstream reuse at a second operating point (the
    claims judge the defaults, which no tunable changes)."""

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
        cells = get("sec7").run(overrides={"n_workers": 4,
                                           "n_connections": 100})["cells"]
        assert cells["crash_blast/exclusive"]["blast_fraction"] \
            > 2 * cells["crash_blast/hermes"]["blast_fraction"]


class TestAppC:
    @pytest.fixture(scope="class")
    def cells(self):
        return get("appc").run(overrides={
            "group_sizes": [1, 4], "n_workers": 4, "n_ports": 8,
            "duration": 1.0, "wide_workers": 80,
            "wide_duration": 0.5})["cells"]

    def test_locality_balance_tradeoff_endpoints(self, cells):
        reuseport_like, hermes_like = cells["group1"], cells["group4"]
        assert reuseport_like["locality_score"] \
            >= hermes_like["locality_score"]
        assert hermes_like["balance_score"] >= reuseport_like["balance_score"]

    def test_wide_device(self, cells):
        wide = cells["wide"]
        assert wide["n_groups"] == 2
        assert wide["all_groups_used"]
        assert wide["completed"] > 0


class TestTable4:
    def test_hermes_never_impacted(self):
        # Hermes's zero is the hermes_impacts_no_traffic claim.
        for shares in smoke("table4")["impacted_share"].values():
            assert shares["exclusive"] > 0

    def test_average_mix_sums_to_100(self):
        assert sum(smoke("table4")["average_mix"].values()) \
            == pytest.approx(100.0, abs=0.1)

    def test_render(self):
        assert "case3" in smoke("table4")["rendered"]


class TestPoolCapacity:
    def test_reuseport_strands_hermes_capacity_recovers(self):
        cells = get("pool_capacity").run(
            overrides={"n_workers": 4, "pool_size": 20})["cells"]
        reuseport, capacity = cells["reuseport"], cells["hermes+capacity"]
        assert reuseport["stranded"] > 0
        assert reuseport["spare_slots"] > 0
        assert capacity["stranded"] < reuseport["stranded"]
        assert capacity["capacity_utilization"] > 0.95


class TestFig45:
    """The Fig. 4/5 distributions are recorded only where fig45 reads
    them."""

    def test_default_cell_records_none(self):
        spec = build_case_workload("case3", "medium", n_workers=2,
                                   duration=0.5, ports=(443, 444))
        server = build_cell(spec, NotificationMode.EXCLUSIVE, 31,
                            n_workers=2).run(until=1.0).server
        assert sum(w.metrics.events_processed for w in server.workers) > 0
        for worker in server.workers:
            assert worker.epoll.total_waits > 0
            assert not worker.epoll.events_per_wait.values
            assert not worker.epoll.blocking_times.values
            assert not worker.metrics.event_processing_times.values

    def test_fig45_records_all_three_for_every_worker(self):
        merged = smoke("fig45")
        for key in ("events_per_wait", "processing_times", "blocking_times"):
            assert sorted(merged[key]) == ["0", "1"]
            assert all(merged[key].values())


class TestIsolation:
    def test_hermes_beats_reuseport_for_small_tenant(self):
        cells = get("isolation").run(
            overrides={"n_workers": 4, "duration": 2.0})["cells"]
        hermes, reuseport = cells["hermes"], cells["reuseport"]
        assert hermes["small_completed"] > 100
        assert hermes["small_p99_ms"] < reuseport["small_p99_ms"]
        assert hermes["small_timeouts_499"] \
            <= reuseport["small_timeouts_499"]


class TestTable5:
    def test_overhead_small_and_structured(self):
        merged = get("table5").run(overrides={"n_workers": 2,
                                              "duration": 1.0})
        rows = merged["rows"]
        assert [r["load"] for r in rows] == ["light", "medium", "heavy"]
        for row in rows:
            total = (row["counter_pct"] + row["scheduler_pct"]
                     + row["syscall_pct"] + row["dispatcher_pct"])
            assert 0 < total < 5.0
            # The dispatcher is the cheapest component (paper's finding).
            assert row["dispatcher_pct"] <= row["syscall_pct"]
        assert "Dispatcher" in merged["rendered"]
