"""End-to-end fleet behaviour: failover, churn, drain, canary reuse."""

import pytest

from repro.cell import Cell
from repro.cluster import CanaryRelease
from repro.faults import FaultArmError
from repro.fleet import (Fleet, aggregate_metrics, build_fleet, fleet_faults,
                         fleet_instance, fleet_spec, run_fleet)
from repro.kernel import Connection, FourTuple
from repro.lb import LBServer, NotificationMode
from repro.sim import Environment


def conn(i=0):
    return Connection(FourTuple(0x0A000001 + i * 31, 40000 + i * 3,
                                0xC0A80001, 443), created_time=0.0)


def small_fleet(policy="stateless", n_instances=3, hash_seed=0x5eed,
                **kwargs):
    env = Environment()
    instances = [fleet_instance(env, index, hash_seed, n_workers=2,
                                ports=[443], mode=NotificationMode.HERMES)
                 for index in range(n_instances)]
    fleet = Fleet(env, instances, policy=policy, hash_seed=hash_seed,
                  **kwargs)
    fleet.start()
    return env, fleet


class TestStatelessSurvival:
    def test_churn_breaks_only_retired_backend_flows(self):
        run = run_fleet(check=True, policy="stateless", n_instances=4,
                        duration=1.2)
        summary, passes = run.doc, run.passes
        assert summary["failed"] == 0
        assert summary["broken_instance"] == 0
        assert summary["broken_backend"] > 0
        assert summary["pcc_violations"] == 0
        assert passes["pcc"] > 0 and passes["pcc_routing"] > 0

    def test_crash_migrates_instead_of_breaking(self):
        summary = run_fleet(check=True, policy="stateless", n_instances=4,
                            duration=1.2, crash_at=0.9).doc
        assert summary["migrated"] > 0
        assert summary["broken_instance"] == 0
        assert summary["failed"] == 0
        assert summary["pcc_violations"] == 0

    def test_migrated_connections_keep_their_backend(self):
        # The whole point of the stateless design: adoption recomputes
        # the same backend from (flow hash, version stamp).
        run = run_fleet(check=True, policy="stateless", n_instances=4,
                        duration=1.2, crash_at=0.9)
        fleet, summary = run.cell.server, run.doc
        migrated = [r for r in fleet.records.values() if r.migrated]
        assert len(migrated) == summary["migrated"] > 0
        for record in migrated:
            assert fleet.expected_backend(record) == record.backend


class TestStatefulFailover:
    def test_crash_breaks_owned_connections(self):
        summary = run_fleet(check=True, policy="stateful", n_instances=4,
                            duration=1.2, crash_at=0.9).doc
        assert summary["broken_instance"] > 0
        assert summary["failed"] == summary["broken_instance"]
        assert summary["migrated"] == 0
        # Legal breaks are not PCC violations: the records left the
        # live set with a recorded reason.
        assert summary["pcc_violations"] == 0

    def test_stateless_strictly_safer_at_same_seed(self):
        stateful, stateless = (
            run_fleet(check=True, policy=policy, n_instances=4,
                      duration=1.2, crash_at=0.9).doc
            for policy in ("stateful", "stateless"))
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

    def test_build_fleet_returns_an_unrun_cell(self):
        cell = build_fleet(fleet_spec(1.0, 150.0), "hermes", 31,
                           n_instances=2, n_workers=2, policy="stateless",
                           ingress="ecmp")
        assert isinstance(cell, Cell) and isinstance(cell.server, Fleet)
        assert cell.injector is None
        assert cell.env.now == 0.0
        assert [inst.name for inst in cell.server.instances] == \
            ["lb0", "lb1"]

    @pytest.mark.parametrize("options, name", [
        ({"conn_rate": 0.0}, "conn_rate"),
        ({"duration": float("nan")}, "duration"),
    ])
    def test_run_fleet_refuses_a_workload_it_cannot_honour(self, options,
                                                           name):
        # A zero rate used to return an empty fleet, a NaN duration an
        # engine error.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            run_fleet(**options)

    def test_fault_past_the_run_is_not_armed(self):
        run = run_fleet(duration=0.5, churn_at=0.6, crash_at=0.3)
        assert [spec.kind.value for spec in run.cell.injector.plan] == \
            ["instance_crash"]
        assert run_fleet(duration=0.5, churn_at=0.6).cell.injector is None

    def test_churn_the_fleet_cannot_honour_is_refused_at_arm_time(self):
        faults = fleet_faults(31, churn_at=0.6, churn_k=8)
        with pytest.raises(FaultArmError, match="churn size"):
            build_fleet(fleet_spec(1.0, 150.0), "hermes", 31,
                        n_instances=2, n_workers=2, policy="stateless",
                        ingress="ecmp", faults=faults)


class TestCanaryReuse:
    def test_rolling_release_replaces_fleet(self):
        env, fleet = small_fleet(n_instances=3)

        def make_new(index):
            return LBServer(env, n_workers=2, ports=[443],
                            mode=NotificationMode.HERMES,
                            name=f"new{index}")

        release = CanaryRelease(fleet, list(fleet.active_instances),
                                make_new, batch_size=1, batch_interval=0.5,
                                drain_poll=0.1)
        release.start()
        env.run(until=5.0)
        assert release.rollout_complete
        assert {d.name for d in fleet.instances} == \
            {"new0", "new1", "new2"}


class TestAggregatesAndShims:
    def test_aggregate_metrics_pools_latencies(self):
        summary = run_fleet(check=True, policy="stateless", n_instances=2,
                            duration=1.0).doc
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
        fleet = Fleet(env, devices)
        summary = aggregate_metrics(fleet.instances)
        assert summary["completed"] == 0
        assert summary["throughput_rps"] == 0.0
        assert summary["instances"] == 2
