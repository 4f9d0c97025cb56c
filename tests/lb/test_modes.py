"""Conformance suite: every registered architecture obeys the same contract.

New architectures plug in through :mod:`repro.lb.modes`; this suite is the
gate they must pass — registry hygiene, byte-identical replay, crash /
restart survival, ``--set`` coercion — without any per-mode special cases
beyond what the spec itself declares.
"""

import json

import pytest

from repro.experiments.common import run_spec
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.lb import LBServer, NotificationMode
from repro.lb.modes import (ArchitectureSpec, get_mode, iter_modes,
                            mode_names, register_mode)
from repro.sim import Environment, RngRegistry
from repro.workloads import (FixedFactory, TrafficGenerator, WorkloadSpec)

ALL_MODES = list(NotificationMode)


def short_workload(name: str) -> WorkloadSpec:
    return WorkloadSpec(name=name, conn_rate=150.0, duration=0.5,
                        factory=FixedFactory((200e-6,)), ports=(443,),
                        requests_per_conn=4, request_gap_mean=0.01,
                        reconnect_on_reset=True)


class TestRegistry:
    def test_every_enum_member_is_registered(self):
        assert set(mode_names()) == {m.value for m in NotificationMode}

    def test_unknown_mode_raises_keyerror_naming_the_registry(self):
        with pytest.raises(KeyError, match="registered:"):
            get_mode("quic_offload")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_mode(ArchitectureSpec(
                name="hermes", description="imposter",
                setup=lambda server, options: None))

    def test_enum_property_mirrors_the_spec(self):
        for mode in NotificationMode:
            assert mode.uses_shared_sockets \
                == get_mode(mode.value).uses_shared_sockets

    def test_tunables_imply_a_config_factory(self):
        # A mode either declares the full --set surface or none of it.
        for spec in iter_modes():
            if spec.config_factory is not None:
                assert spec.config_kwarg
                assert spec.tunables()
            else:
                assert not spec.tunables()


class TestSetConformance:
    @pytest.mark.parametrize(
        "spec", [s for s in iter_modes() if s.config_factory is not None],
        ids=lambda s: s.name)
    def test_string_overrides_round_trip_to_defaults(self, spec):
        defaults = spec.tunables()
        config = spec.config_factory(
            {key: str(value) for key, value in defaults.items()})
        assert config.tunables() == defaults

    @pytest.mark.parametrize(
        "spec", [s for s in iter_modes() if s.config_factory is not None],
        ids=lambda s: s.name)
    def test_unknown_override_rejected(self, spec):
        with pytest.raises(ValueError, match="unknown"):
            spec.config_factory({"definitely_not_a_tunable": "1"})


class TestByteIdentity:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_run_twice_is_byte_identical(self, mode):
        def once():
            result = run_spec(mode, short_workload(f"conf_{mode.value}"),
                              n_workers=4, seed=23, settle=0.1)
            return json.dumps(result.to_doc(), sort_keys=True)

        first, second = once(), once()
        assert first == second
        assert json.loads(first)["completed"] > 0


class TestCrashRestart:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_worker_crash_restart_and_keep_serving(self, mode):
        # Crash a non-dispatcher worker mid-run, detect, restart: every
        # architecture must survive and the restarted worker must serve
        # again (non-shared-socket modes repoint at the fresh socket via
        # ArchitectureSpec.on_restart).
        env = Environment()
        registry = RngRegistry(29)
        server = LBServer(env, n_workers=4, ports=[443], mode=mode,
                          hash_seed=registry.stream("hash").randrange(2 ** 32))
        server.start()
        spec = WorkloadSpec(name=f"restart_{mode.value}", conn_rate=200.0,
                            duration=2.0, factory=FixedFactory((200e-6,)),
                            ports=(443,), requests_per_conn=6,
                            request_gap_mean=0.02, reconnect_on_reset=True)
        TrafficGenerator(env, server, registry.stream("traffic"), spec).start()
        plan = FaultPlan(faults=(
            FaultSpec(kind=FaultKind.WORKER_CRASH, at=0.8, target=1,
                      detect_delay=0.1, restart_after=0.3),
        ), seed=5)
        FaultInjector(env, server, plan,
                      registry=registry.fork("faults")).arm()
        at_restart = {}
        env.schedule_callback(
            1.15, lambda: at_restart.update(
                accepted=server.metrics.workers[1].accepted))
        env.run(until=3.0)

        victim = server.workers[1]
        assert victim.is_alive
        # Served again after the restart (snapshot taken just past it).
        assert server.metrics.workers[1].accepted > at_restart["accepted"]
        summary = server.metrics.summary()
        assert summary["completed"] > 0
        if not mode.uses_shared_sockets:
            # The fresh reuseport socket landed past the original
            # one-socket-per-worker layout and is dispatchable.
            port_group = server.stack.group_for(443)
            fresh = server._worker_sockets[1][443]
            assert port_group.sockets.index(fresh) >= 4


class TestValidation:
    def test_dispatcher_mode_needs_two_workers(self):
        env = Environment()
        with pytest.raises(ValueError, match=">= 2 workers"):
            LBServer(env, n_workers=1, ports=[443],
                     mode=NotificationMode.USERSPACE_DISPATCHER)

    def test_dispatcher_worker_flag_honoured(self):
        env = Environment()
        server = LBServer(env, n_workers=2, ports=[443],
                          mode=NotificationMode.USERSPACE_DISPATCHER)
        spec = get_mode("userspace_dispatcher")
        assert spec.uses_dispatcher_worker
        assert type(server.workers[0]).__name__ == "DispatcherWorker"

