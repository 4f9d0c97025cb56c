"""Fleet membership: flow-hash spray, per-connection consistency and
draining (the §6.1 cluster tier)."""

import pytest

from repro.fleet import Fleet
from repro.kernel import Connection, FourTuple
from repro.lb import LBServer, NotificationMode
from repro.sim import Environment


def make_fleet(n_devices=3, n_workers=2):
    env = Environment()
    devices = [LBServer(env, n_workers=n_workers, ports=[443],
                        mode=NotificationMode.REUSEPORT, name=f"lb{i}")
               for i in range(n_devices)]
    for d in devices:
        d.start()
    fleet = Fleet(env, devices)
    return env, fleet, devices


def conn(i=0):
    return Connection(FourTuple(0x0A000001 + i * 31, 40000 + i * 3,
                                0xC0A80001, 443), created_time=0.0)


class TestSpray:
    def test_connections_spread_over_devices(self):
        env, fleet, devices = make_fleet()
        for i in range(120):
            fleet.connect(conn(i))
        env.run(until=0.5)
        per_device = [sum(len(w.conns) for w in d.workers) for d in devices]
        assert all(c > 10 for c in per_device)
        assert sum(per_device) == 120

    def test_per_connection_consistency(self):
        env, fleet, devices = make_fleet()
        c = conn(5)
        fleet.connect(c)
        assert fleet.instance_for(c) in devices

    def test_deliver_routes_to_owner(self):
        env, fleet, devices = make_fleet()
        c = conn(1)
        fleet.connect(c)
        env.run(until=0.1)
        from repro.kernel import Request
        fleet.deliver(c, Request(event_times=(0.001,)))
        env.run(until=0.3)
        owner = fleet.instance_for(c)
        assert owner.metrics.requests_completed == 1

    def test_deliver_unknown_connection(self):
        env, fleet, _ = make_fleet()
        from repro.kernel import Request
        with pytest.raises(KeyError):
            fleet.deliver(conn(9), Request())

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Fleet(Environment(), [])


class TestDraining:
    def test_draining_device_gets_no_new_connections(self):
        env, fleet, devices = make_fleet()
        fleet.drain_instance(0)
        for i in range(60):
            fleet.connect(conn(i))
        env.run(until=0.3)
        assert sum(len(w.conns) for w in devices[0].workers) == 0
        assert fleet.is_draining(devices[0])
        assert devices[0] not in fleet.active_instances

    def test_existing_connections_survive_drain(self):
        env, fleet, devices = make_fleet()
        conns = [conn(i) for i in range(30)]
        for c in conns:
            fleet.connect(c)
        env.run(until=0.2)
        victim = devices[0]
        held = sum(len(w.conns) for w in victim.workers)
        fleet.drain_instance(0)
        env.run(until=0.4)
        assert sum(len(w.conns) for w in victim.workers) == held

    def test_device_drained_predicate(self):
        env, fleet, devices = make_fleet()
        assert fleet.instance_drained(devices[0])
        c = conn(1)
        fleet.connect(c)
        env.run(until=0.2)
        owner = fleet.instance_for(c)
        assert not fleet.instance_drained(owner)
        c.client_close()
        env.run(until=0.5)
        assert fleet.instance_drained(owner)

    def test_remove_device(self):
        env, fleet, devices = make_fleet()
        fleet.drain_instance(0)
        residual = fleet.remove_instance(devices[0])
        assert residual == 0
        assert devices[0] not in fleet.instances

    def test_add_device(self):
        env, fleet, devices = make_fleet()
        extra = LBServer(env, n_workers=2, ports=[443],
                         mode=NotificationMode.HERMES, name="extra")
        extra.start()
        fleet.add_instance(extra)
        assert extra in fleet.active_instances
        with pytest.raises(ValueError):
            fleet.add_instance(extra)

    def test_all_draining_refuses_connections(self):
        env, fleet, devices = make_fleet()
        for index in range(len(devices)):
            fleet.drain_instance(index)
        c = conn(1)
        assert not fleet.connect(c)
        assert c.state.value == "reset"
