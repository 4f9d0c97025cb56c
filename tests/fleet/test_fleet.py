"""End-to-end fleet behaviour: failover, churn, drain, canary reuse."""

import pytest

from repro.check.runner import run_monitored_fleet
from repro.cluster import CanaryRelease, LBCluster
from repro.fleet import Fleet, aggregate_metrics, build_fleet
from repro.kernel import Connection, FourTuple
from repro.lb import LBServer, NotificationMode
from repro.sim import Environment


def conn(i=0):
    return Connection(FourTuple(0x0A000001 + i * 31, 40000 + i * 3,
                                0xC0A80001, 443), created_time=0.0)


def small_fleet(policy="stateless", n_instances=3, **kwargs):
    env = Environment()
    fleet = build_fleet(env, n_instances, 2, ports=[443],
                        mode=NotificationMode.HERMES, policy=policy,
                        **kwargs)
    fleet.start()
    return env, fleet


class TestStatelessSurvival:
    def test_churn_breaks_only_retired_backend_flows(self):
        pcc, passes, summary = run_monitored_fleet(
            policy="stateless", n_instances=4, duration=1.2)
        assert summary["failed"] == 0
        assert summary["broken_instance"] == 0
        assert summary["broken_backend"] > 0
        assert summary["pcc_violations"] == 0
        assert passes["pcc"] > 0 and passes["pcc_routing"] > 0

    def test_crash_migrates_instead_of_breaking(self):
        pcc, passes, summary = run_monitored_fleet(
            policy="stateless", n_instances=4, duration=1.2, crash_at=0.9)
        assert summary["migrated"] > 0
        assert summary["broken_instance"] == 0
        assert summary["failed"] == 0
        assert summary["pcc_violations"] == 0

    def test_migrated_connections_keep_their_backend(self):
        # The whole point of the stateless design: adoption recomputes
        # the same backend from (flow hash, version stamp).
        pcc, _passes, summary = run_monitored_fleet(
            policy="stateless", n_instances=4, duration=1.2, crash_at=0.9)
        fleet = pcc.fleet
        migrated = [r for r in fleet.records.values() if r.migrated]
        assert len(migrated) == summary["migrated"] > 0
        for record in migrated:
            assert fleet.expected_backend(record) == record.backend


class TestStatefulFailover:
    def test_crash_breaks_owned_connections(self):
        pcc, _passes, summary = run_monitored_fleet(
            policy="stateful", n_instances=4, duration=1.2, crash_at=0.9)
        assert summary["broken_instance"] > 0
        assert summary["failed"] == summary["broken_instance"]
        assert summary["migrated"] == 0
        # Legal breaks are not PCC violations: the records left the
        # live set with a recorded reason.
        assert summary["pcc_violations"] == 0

    def test_stateless_strictly_safer_at_same_seed(self):
        _p1, _s1, stateful = run_monitored_fleet(
            policy="stateful", n_instances=4, duration=1.2, crash_at=0.9)
        _p2, _s2, stateless = run_monitored_fleet(
            policy="stateless", n_instances=4, duration=1.2, crash_at=0.9)
        assert stateless["broken"] < stateful["broken"]
        assert stateless["completed"] > stateful["completed"]


class TestFleetMechanics:
    def test_drained_instance_gets_no_new_flows(self):
        env, fleet = small_fleet()
        drained = fleet.drain_instance(0)
        for i in range(60):
            fleet.connect(conn(i))
        env.run(until=0.3)
        assert sum(len(w.conns) for w in drained.workers) == 0
        assert drained not in fleet.active_instances

    def test_crash_requires_live_instance(self):
        env, fleet = small_fleet()
        fleet.crash_instance(1)
        env.run(until=0.1)
        with pytest.raises(RuntimeError, match="already down"):
            fleet.crash_instance(1)

    def test_churn_size_validated(self):
        env, fleet = small_fleet(n_backends=4)
        with pytest.raises(ValueError):
            fleet.churn_backends(0)
        with pytest.raises(ValueError):
            fleet.churn_backends(4)

    def test_instances_get_derived_hash_seeds(self):
        env, fleet = small_fleet(n_instances=4, hash_seed=77)
        seeds = [inst.stack.hash_seed for inst in fleet.instances]
        assert len(set(seeds)) == 4
        assert [inst.name for inst in fleet.instances] == \
            [f"lb{i}" for i in range(4)]

    def test_instances_needed_reuses_autoscale_model(self):
        env, fleet = small_fleet()
        few = fleet.instances_needed(100_000.0)
        many = fleet.instances_needed(1_000_000.0)
        assert 0 < few < many


class TestCanaryReuse:
    def test_rolling_release_replaces_fleet(self):
        env, fleet = small_fleet(n_instances=3)

        def make_new(index):
            return LBServer(env, n_workers=2, ports=[443],
                            mode=NotificationMode.HERMES,
                            name=f"new{index}")

        release = fleet.rolling_canary(make_new, batch_size=1,
                                       batch_interval=0.5, drain_poll=0.1)
        assert isinstance(release, CanaryRelease)
        release.start()
        env.run(until=5.0)
        assert release.rollout_complete
        assert {d.name for d in fleet.cluster.devices} == \
            {"new0", "new1", "new2"}


class TestAggregatesAndShims:
    def test_aggregate_metrics_pools_latencies(self):
        _pcc, _passes, summary = run_monitored_fleet(
            policy="stateless", n_instances=2, duration=1.0)
        assert summary["completed"] > 0
        assert summary["p99_ms"] >= summary["avg_ms"] > 0
        assert summary["instances"] == 2

    def test_aggregate_metrics_needs_devices(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])

    def test_idle_cluster_aggregates_to_zero(self):
        env = Environment()
        devices = [LBServer(env, n_workers=2, ports=[443],
                            mode=NotificationMode.HERMES, name=f"lb{i}")
                   for i in range(2)]
        for d in devices:
            d.start()
        cluster = LBCluster(env, devices)
        summary = aggregate_metrics(cluster.devices)
        assert summary["completed"] == 0
        assert summary["throughput_rps"] == 0.0
        assert summary["instances"] == 2
