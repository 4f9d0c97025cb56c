"""Tests for canary releases."""

from repro.cluster import CanaryRelease
from repro.fleet import Fleet
from repro.kernel import Connection, FourTuple
from repro.lb import LBServer, NotificationMode
from repro.sim import Environment


def setup(n_old=3):
    env = Environment()
    old = [LBServer(env, n_workers=2, ports=[443],
                    mode=NotificationMode.EXCLUSIVE, name=f"old{i}")
           for i in range(n_old)]
    for d in old:
        d.start()
    fleet = Fleet(env, old)

    def make_new(index):
        device = LBServer(env, n_workers=2, ports=[443],
                          mode=NotificationMode.HERMES, name=f"new{index}")
        return device

    return env, fleet, old, make_new


class TestRollout:
    def test_full_replacement(self):
        env, fleet, old, make_new = setup()
        canary = CanaryRelease(fleet, old, make_new,
                               batch_size=1, batch_interval=0.5,
                               drain_poll=0.1)
        canary.start()
        env.run(until=5.0)
        assert canary.rollout_complete
        assert len(canary.new_devices) == 3
        assert canary.retired == old
        assert all(d.mode is NotificationMode.HERMES
                   for d in fleet.instances)

    def test_fraction_new_rises(self):
        env, fleet, old, make_new = setup()
        canary = CanaryRelease(fleet, old, make_new,
                               batch_size=1, batch_interval=1.0,
                               drain_poll=0.2)
        canary.start()
        fractions = []
        for t in (0.1, 1.1, 2.1, 4.0):
            env.run(until=t)
            fractions.append(canary.fraction_new)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_drain_blocks_retirement(self):
        env, fleet, old, make_new = setup(n_old=1)
        # Plant a long-lived connection on the old device.
        conn = Connection(FourTuple(1, 2, 3, 443), created_time=0.0)
        fleet.connect(conn)
        env.run(until=0.2)
        canary = CanaryRelease(fleet, old, make_new,
                               batch_size=1, batch_interval=0.2,
                               drain_poll=0.1)
        canary.start()
        env.run(until=2.0)
        assert not canary.rollout_complete  # conn still holding the drain
        conn.client_close()
        env.run(until=4.0)
        assert canary.rollout_complete

    def test_new_devices_receive_traffic_after_rollout(self):
        env, fleet, old, make_new = setup()
        canary = CanaryRelease(fleet, old, make_new,
                               batch_size=3, batch_interval=0.1,
                               drain_poll=0.1)
        canary.start()
        env.run(until=1.0)
        conns = [Connection(FourTuple(i, 40000 + i, 9, 443),
                            created_time=env.now) for i in range(20)]
        for c in conns:
            fleet.connect(c)
        env.run(until=2.0)
        for c in conns:
            assert fleet.instance_for(c) in canary.new_devices
