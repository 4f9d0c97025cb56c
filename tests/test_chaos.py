"""Chaos tests: random failure injection must never corrupt accounting.

Random workloads + random hang/crash/degradation events — expressed as
declarative :class:`repro.faults.FaultPlan` schedules and armed through
the :class:`repro.faults.FaultInjector`, the same path the chaos CLI and
the resilience matrix use — across random modes and seeds.  Whatever
happens, the simulation must terminate and the books must balance.

``max_examples`` comes from the hypothesis profile (see
``tests/conftest.py``): the scheduled CI chaos job raises it via
``HYPOTHESIS_PROFILE=chaos`` / ``CHAOS_MAX_EXAMPLES``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ServiceDegrader
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.lb import LBServer, NotificationMode
from repro.sim import Environment, RngRegistry
from repro.workloads import FixedFactory, TrafficGenerator, WorkloadSpec

MODES = [NotificationMode.EXCLUSIVE, NotificationMode.REUSEPORT,
         NotificationMode.HERMES, NotificationMode.EXCLUSIVE_RR]


@st.composite
def chaos_scenario(draw):
    return {
        "seed": draw(st.integers(min_value=0, max_value=10 ** 6)),
        "mode": draw(st.sampled_from(MODES)),
        "n_workers": draw(st.integers(min_value=1, max_value=6)),
        "conn_rate": draw(st.floats(min_value=10.0, max_value=400.0)),
        "requests_per_conn": draw(st.integers(min_value=1, max_value=5)),
        "service": draw(st.floats(min_value=1e-5, max_value=5e-3)),
        "hangs": draw(st.lists(
            st.tuples(st.floats(min_value=0.1, max_value=0.8),   # when
                      st.floats(min_value=0.01, max_value=0.5)),  # dur
            max_size=3)),
        "crash": draw(st.booleans()),
        "degrade": draw(st.booleans()),
    }


def build_plan(scenario) -> FaultPlan:
    """The scenario's failures as one declarative, serializable plan."""
    faults = [
        FaultSpec(kind=FaultKind.WORKER_HANG, at=when, duration=duration,
                  target=int(when * 1000) % scenario["n_workers"])
        for when, duration in scenario["hangs"]
    ]
    if scenario["crash"] and scenario["n_workers"] > 1:
        faults.append(FaultSpec(kind=FaultKind.WORKER_CRASH, at=0.5,
                                target=0, detect_delay=0.1))
    return FaultPlan(faults=tuple(faults), seed=scenario["seed"])


class TestChaos:
    @given(chaos_scenario())
    @settings(deadline=None)
    def test_accounting_survives_failures(self, scenario):
        env = Environment()
        registry = RngRegistry(scenario["seed"])
        server = LBServer(
            env, n_workers=scenario["n_workers"], ports=[443],
            mode=scenario["mode"],
            hash_seed=registry.stream("hash").randrange(2 ** 32))
        server.start()
        spec = WorkloadSpec(
            name="chaos", conn_rate=scenario["conn_rate"], duration=1.0,
            factory=FixedFactory((scenario["service"],)), ports=(443,),
            requests_per_conn=scenario["requests_per_conn"],
            request_gap_mean=0.02, reconnect_on_reset=True)
        gen = TrafficGenerator(env, server, registry.stream("traffic"),
                               spec)

        # The plan survives a JSON round-trip before it's armed — chaos
        # runs exercise the same serialization path as `repro run --faults`.
        plan = FaultPlan.from_json(build_plan(scenario).to_json())
        injector = FaultInjector(env, server, plan).arm()
        gen.start()

        if scenario["degrade"]:
            ServiceDegrader(env, server, check_interval=0.1,
                            sustain_checks=1, cpu_threshold=0.95,
                            rng=registry.stream("degrader")).start()

        env.run(until=3.0)

        # Every scheduled occurrence fired inside the horizon.
        assert injector.faults_fired == len(plan.faults)

        metrics = server.metrics
        # The books balance: device totals equal per-worker sums.
        assert metrics.requests_completed == sum(
            w.requests_completed for w in metrics.workers.values())
        assert metrics.requests_completed == \
            len(metrics.request_latencies)
        # No negative or impossible counters.
        assert metrics.requests_failed >= 0
        assert metrics.connections_accepted >= 0
        assert all(latency >= 0
                   for latency in metrics.request_latencies.values)
        # Live connection gauges match actual held connections.
        for worker in server.workers:
            assert worker.metrics.connections.level == len(worker.conns)
        # Accepted connections can't exceed opened ones.
        assert metrics.connections_accepted <= \
            gen.stats.connections_opened + gen.stats.reconnects
        # Alive workers must have kept making progress unless starved.
        if (metrics.requests_completed == 0
                and gen.stats.requests_sent > 0):
            # Total stall only possible if every worker died/hung past
            # the horizon.
            assert (not server.alive_workers
                    or scenario["hangs"] or scenario["crash"])

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(deadline=None)
    def test_mass_crash_leaves_consistent_state(self, seed):
        """Crash everyone mid-flight; nothing raises, books balance."""
        env = Environment()
        registry = RngRegistry(seed)
        server = LBServer(env, n_workers=3, ports=[443],
                          mode=NotificationMode.HERMES,
                          hash_seed=seed % 2 ** 32)
        server.start()
        spec = WorkloadSpec(name="mass", conn_rate=200.0, duration=1.0,
                            factory=FixedFactory((0.001,)), ports=(443,),
                            requests_per_conn=3, request_gap_mean=0.05)
        TrafficGenerator(env, server, registry.stream("t"), spec).start()

        plan = FaultPlan(faults=tuple(
            FaultSpec(kind=FaultKind.WORKER_CRASH, at=0.5, target=wid,
                      detect_delay=0.0)
            for wid in range(3)), seed=seed)
        injector = FaultInjector(env, server, plan).arm()
        env.run(until=2.0)

        assert injector.faults_fired == 3
        assert server.alive_workers == []
        for worker in server.workers:
            assert len(worker.conns) == 0
            assert worker.metrics.connections.level == 0
