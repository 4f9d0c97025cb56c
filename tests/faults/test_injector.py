"""FaultInjector: arming, firing, clearing, and every fault kind."""

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.kernel.nic import Nic
from repro.lb import LBServer, NotificationMode
from repro.obs import CAT_FAULT, FlightRecorder, Tracer
from repro.sim import Environment, RngRegistry
from repro.workloads import FixedFactory, TrafficGenerator, WorkloadSpec


def build_device(mode=NotificationMode.HERMES, n_workers=4, seed=7,
                 nic=False, tracer=None):
    env = Environment()
    registry = RngRegistry(seed)
    server = LBServer(env, n_workers=n_workers, ports=[443], mode=mode,
                      hash_seed=registry.stream("hash").randrange(2 ** 32),
                      nic=Nic(n_queues=n_workers) if nic else None,
                      tracer=tracer)
    server.start()
    return env, registry, server


def start_traffic(env, server, registry, duration=1.0, conn_rate=120.0):
    spec = WorkloadSpec(name="faults", conn_rate=conn_rate, duration=duration,
                        factory=FixedFactory((200e-6,)), ports=(443,),
                        requests_per_conn=6, request_gap_mean=0.1,
                        reconnect_on_reset=True)
    gen = TrafficGenerator(env, server, registry.stream("traffic"), spec)
    gen.start()
    return gen


def plan_of(*specs, seed=0):
    return FaultPlan(faults=tuple(specs), seed=seed)


class TestArming:
    def test_empty_plan_is_inert(self):
        env, registry, server = build_device()
        depth = len(env._queue)
        injector = FaultInjector(env, server, FaultPlan()).arm()
        assert injector.log == []
        assert injector.faults_fired == 0
        assert len(env._queue) == depth  # nothing scheduled

    def test_double_arm_raises(self):
        env, _, server = build_device()
        injector = FaultInjector(env, server, FaultPlan()).arm()
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()

    def test_arm_logs_each_spec(self):
        env, _, server = build_device()
        plan = plan_of(
            FaultSpec(kind=FaultKind.WORKER_HANG, at=0.5, duration=0.1,
                      count=3, period=0.2),
            FaultSpec(kind=FaultKind.SLOW_WORKER, at=1.0, duration=0.5,
                      magnitude=2.0))
        injector = FaultInjector(env, server, plan).arm()
        arms = [r for r in injector.log if r["event"] == "arm"]
        assert [(a["kind"], a["occurrences"], a["first_at"]) for a in arms] \
            == [("worker_hang", 3, 0.5), ("slow_worker", 1, 1.0)]

    def test_nic_fault_without_nic_rejected(self):
        env, _, server = build_device(nic=False)
        plan = plan_of(FaultSpec(kind=FaultKind.NIC_LOSS, at=0.5,
                                 duration=0.1, magnitude=0.1))
        with pytest.raises(ValueError, match="Nic"):
            FaultInjector(env, server, plan).arm()

    def test_wst_fault_needs_hermes(self):
        env, _, server = build_device(mode=NotificationMode.EXCLUSIVE)
        plan = plan_of(FaultSpec(kind=FaultKind.WST_FREEZE, at=0.5,
                                 duration=0.1, target=0))
        with pytest.raises(ValueError, match="HERMES"):
            FaultInjector(env, server, plan).arm()

    def test_target_out_of_range_rejected(self):
        env, _, server = build_device(n_workers=4)
        plan = plan_of(FaultSpec(kind=FaultKind.WORKER_HANG, at=0.5,
                                 duration=0.1, target=9))
        with pytest.raises(ValueError, match="out of range"):
            FaultInjector(env, server, plan).arm()


class TestTargeting:
    def test_int_target_hits_that_worker(self):
        env, registry, server = build_device()
        start_traffic(env, server, registry)
        plan = plan_of(FaultSpec(kind=FaultKind.WORKER_HANG, at=0.5,
                                 duration=0.2, target=2))
        injector = FaultInjector(env, server, plan).arm()
        env.run(until=1.0)
        assert injector.fired()[0]["worker"] == 2

    def test_busiest_picks_max_connections(self):
        env, registry, server = build_device(mode=NotificationMode.EXCLUSIVE)
        start_traffic(env, server, registry)
        plan = plan_of(FaultSpec(kind=FaultKind.WORKER_HANG, at=0.8,
                                 duration=0.1, target="busiest"))
        injector = FaultInjector(env, server, plan).arm()

        observed = {}

        def snapshot():
            counts = [len(w.conns) for w in server.workers]
            observed["busiest"] = counts.index(max(counts))

        env.schedule_callback(0.8, snapshot)
        env.run(until=1.0)
        assert injector.fired()[0]["worker"] == observed["busiest"]

    def test_random_target_is_seed_deterministic(self):
        def victim(seed):
            env, registry, server = build_device()
            start_traffic(env, server, registry)
            plan = plan_of(FaultSpec(kind=FaultKind.WORKER_HANG, at=0.5,
                                     duration=0.1, target="random"),
                           seed=seed)
            injector = FaultInjector(env, server, plan).arm()
            env.run(until=1.0)
            return injector.fired()[0]["worker"]

        assert victim(5) == victim(5)
        victims = {victim(s) for s in range(8)}
        assert len(victims) > 1  # actually random across seeds


class TestFaultKinds:
    def test_hang_blocks_and_logs_blast(self):
        env, registry, server = build_device()
        start_traffic(env, server, registry)
        plan = plan_of(FaultSpec(kind=FaultKind.WORKER_HANG, at=0.5,
                                 duration=0.3, target=1))
        injector = FaultInjector(env, server, plan).arm()
        env.run(until=2.0)
        fire = injector.fired(FaultKind.WORKER_HANG)[0]
        assert fire["duration"] == 0.3
        assert fire["total_conns"] >= fire["conns_at_risk"] >= 0

    def test_crash_detect_restart_chain(self):
        env, registry, server = build_device()
        start_traffic(env, server, registry, duration=2.0)
        plan = plan_of(FaultSpec(kind=FaultKind.WORKER_CRASH, at=0.8,
                                 target=0, detect_delay=0.2,
                                 restart_after=0.5))
        injector = FaultInjector(env, server, plan).arm()
        env.run(until=0.9)
        assert not server.workers[0].is_alive
        env.run(until=1.2)  # detection at 1.0 cleaned the sockets
        assert len(server.workers[0].conns) == 0
        env.run(until=3.0)  # restart at 1.3
        assert server.workers[0].is_alive
        events = [r["event"] for r in injector.log]
        assert events == ["arm", "fire", "clear", "restart"]
        clear = [r for r in injector.log if r["event"] == "clear"][0]
        assert clear["blast"] >= 0
        # The restarted worker serves traffic again.
        before = server.metrics.workers[0].requests_completed
        start_traffic(env, server, registry.fork("late"), duration=1.0,
                      conn_rate=300.0)
        env.run(until=4.5)
        assert server.metrics.workers[0].requests_completed >= before

    def test_crash_on_dead_worker_is_skipped(self):
        env, registry, server = build_device()
        start_traffic(env, server, registry)
        plan = plan_of(
            FaultSpec(kind=FaultKind.WORKER_CRASH, at=0.5, target=1,
                      detect_delay=0.1),
            FaultSpec(kind=FaultKind.WORKER_CRASH, at=0.7, target=1,
                      detect_delay=0.1))
        injector = FaultInjector(env, server, plan).arm()
        env.run(until=1.5)
        fires = injector.fired(FaultKind.WORKER_CRASH)
        assert "skipped" not in fires[0]
        assert fires[1]["skipped"] == "already crashed"

    def test_slow_worker_sets_and_restores_multiplier(self):
        env, registry, server = build_device()
        start_traffic(env, server, registry)
        plan = plan_of(FaultSpec(kind=FaultKind.SLOW_WORKER, at=0.5,
                                 duration=0.4, target=2, magnitude=5.0))
        injector = FaultInjector(env, server, plan).arm()
        env.run(until=0.7)
        assert server.workers[2].service_multiplier == 5.0
        env.run(until=1.0)
        assert server.workers[2].service_multiplier == 1.0
        assert injector.faults_cleared == 1

    def test_wst_freeze_stops_timestamp_then_recovers(self):
        env, registry, server = build_device()
        start_traffic(env, server, registry)
        plan = plan_of(FaultSpec(kind=FaultKind.WST_FREEZE, at=0.5,
                                 duration=0.3, target=0))
        injector = FaultInjector(env, server, plan).arm()
        env.run(until=0.7)
        binding = server.workers[0].hermes
        frozen_ts = binding.group.wst.read_worker(binding.rank)[0]
        env.run(until=0.79)
        assert binding.group.wst.read_worker(binding.rank)[0] == frozen_ts
        env.run(until=2.0)
        assert binding.group.wst.read_worker(binding.rank)[0] > frozen_ts
        assert injector.faults_cleared == 1

    def test_torn_burst_toggles_atomicity_and_restores(self):
        env, registry, server = build_device()
        start_traffic(env, server, registry)
        plan = plan_of(FaultSpec(kind=FaultKind.WST_TORN_BURST, at=0.5,
                                 duration=0.2, magnitude=0.8))
        injector = FaultInjector(env, server, plan).arm()
        wst = server.groups[0].wst
        saved_rng = wst._rng
        env.run(until=0.6)
        assert wst.atomic is False
        assert wst.torn_read_prob == 0.8
        env.run(until=1.0)
        assert wst.atomic is True
        assert wst.torn_read_prob == 0.0
        assert wst._rng is saved_rng
        assert injector.faults_cleared == 1

    def test_sync_loss_suppresses_map_updates(self):
        env, registry, server = build_device()
        start_traffic(env, server, registry)
        plan = plan_of(FaultSpec(kind=FaultKind.BITMAP_SYNC_LOSS, at=0.5,
                                 duration=0.3))
        injector = FaultInjector(env, server, plan).arm()
        scheduler = server.groups[0].scheduler
        env.run(until=0.6)
        assert scheduler.sync_enabled is False
        env.run(until=1.0)
        assert scheduler.sync_enabled is True
        assert scheduler.syncs_suppressed > 0
        assert injector.faults_cleared == 1

    def test_nic_loss_drops_packets_then_restores(self):
        env, registry, server = build_device(nic=True)
        start_traffic(env, server, registry, conn_rate=300.0)
        plan = plan_of(FaultSpec(kind=FaultKind.NIC_LOSS, at=0.3,
                                 duration=0.4, magnitude=0.5))
        injector = FaultInjector(env, server, plan).arm()
        env.run(until=0.5)
        assert server.stack.nic.loss_prob == 0.5
        env.run(until=1.5)
        assert server.stack.nic.loss_prob == 0.0
        assert server.stack.nic.packets_dropped > 0
        assert injector.faults_cleared == 1


class TestObservability:
    def test_fault_events_reach_the_tracer(self):
        tracer = Tracer()
        env, registry, server = build_device(tracer=tracer)
        start_traffic(env, server, registry)
        plan = plan_of(FaultSpec(kind=FaultKind.SLOW_WORKER, at=0.5,
                                 duration=0.2, target=0, magnitude=2.0))
        FaultInjector(env, server, plan).arm()  # tracer from the server
        env.run(until=1.0)
        names = [e.name for e in tracer.events if e.cat == CAT_FAULT]
        assert names == ["fault.arm", "fault.fire", "fault.clear"]

    def test_crash_dumps_flight_recorder(self):
        recorder = FlightRecorder(capacity=256)
        tracer = Tracer(recorder=recorder, keep_events=False)
        env, registry, server = build_device(tracer=tracer)
        start_traffic(env, server, registry)
        plan = plan_of(FaultSpec(kind=FaultKind.WORKER_CRASH, at=0.8,
                                 target="busiest", detect_delay=0.005))
        injector = FaultInjector(env, server, plan).arm()
        env.run(until=1.5)
        assert len(injector.crash_dumps) == 1
        names = [e["name"] for e in injector.crash_dumps[0]]
        assert "fault.fire" in names

    def test_fired_filters_by_kind(self):
        env, registry, server = build_device()
        start_traffic(env, server, registry)
        plan = plan_of(
            FaultSpec(kind=FaultKind.WORKER_HANG, at=0.4, duration=0.1,
                      target=0),
            FaultSpec(kind=FaultKind.SLOW_WORKER, at=0.5, duration=0.1,
                      target=1, magnitude=2.0))
        injector = FaultInjector(env, server, plan).arm()
        env.run(until=1.0)
        assert len(injector.fired()) == 2
        assert len(injector.fired(FaultKind.WORKER_HANG)) == 1
        assert injector.fired(FaultKind.SLOW_WORKER)[0]["worker"] == 1


class TestLegacyShims:
    def test_server_hang_worker_routes_through_faults(self):
        tracer = Tracer()
        env, registry, server = build_device(tracer=tracer)
        server.hang_worker(1, 0.3)
        assert server.workers[1]._forced_hang == 0.3
        fires = [e for e in tracer.events if e.name == "fault.fire"]
        assert fires and fires[0].worker == 1
