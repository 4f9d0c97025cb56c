"""Tests for the Worker Status Table."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (BpfArrayMap, CascadingScheduler, HermesConfig,
                        WorkerStatusTable, ids_from_bitmap)
from repro.sim import RngRegistry


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestUpdates:
    def test_initial_state(self):
        clock = FakeClock()
        wst = WorkerStatusTable(3, clock)
        snap = wst.read_all()
        assert snap.times == (0.0, 0.0, 0.0)
        assert snap.events == (0, 0, 0)
        assert snap.conns == (0, 0, 0)

    def test_touch_timestamp(self):
        clock = FakeClock()
        wst = WorkerStatusTable(2, clock)
        clock.now = 5.0
        wst.touch_timestamp(1)
        assert wst.times == (0.0, 5.0)

    def test_event_counter(self):
        wst = WorkerStatusTable(1, FakeClock())
        wst.add_events(0, 10)
        wst.add_events(0, -3)
        assert wst.events == (7,)

    def test_conn_counter(self):
        wst = WorkerStatusTable(1, FakeClock())
        wst.add_conns(0, 1)
        wst.add_conns(0, 1)
        wst.add_conns(0, -1)
        assert wst.conns == (1,)

    def test_counters_never_negative(self):
        wst = WorkerStatusTable(1, FakeClock())
        wst.add_events(0, -5)
        assert wst.events == (0,)

    def test_worker_isolation(self):
        wst = WorkerStatusTable(3, FakeClock())
        wst.add_conns(1, 4)
        assert wst.conns == (0, 4, 0)

    def test_bounds_checked(self):
        # Every update raises before it counts or writes anything.
        wst = WorkerStatusTable(2, FakeClock())
        for worker_id in (-1, 2, 3):
            for update in (wst.touch_timestamp,
                           lambda w: wst.add_events(w, 1),
                           lambda w: wst.add_conns(w, 1)):
                with pytest.raises(IndexError, match="out of range"):
                    update(worker_id)
        assert wst.update_ops == 0
        assert (wst.times, wst.events, wst.conns) == \
            ((0.0, 0.0), (0, 0), (0, 0))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            WorkerStatusTable(0, FakeClock())

    def test_update_ops_counted(self):
        wst = WorkerStatusTable(1, FakeClock())
        wst.touch_timestamp(0)
        wst.add_events(0, 1)
        wst.add_conns(0, 1)
        assert wst.update_ops == 3

    def test_read_ops_counted(self):
        wst = WorkerStatusTable(1, FakeClock())
        wst.read_all()
        wst.read_all()
        assert wst.read_ops == 2

    def test_read_worker(self):
        clock = FakeClock()
        wst = WorkerStatusTable(2, clock)
        clock.now = 3.0
        wst.touch_timestamp(0)
        wst.add_events(0, 2)
        wst.add_conns(0, 5)
        assert wst.read_worker(0) == (3.0, 2, 5)


class TestAtomicity:
    def test_atomic_mode_never_serves_torn_values(self):
        rng = RngRegistry(1).stream("torn")
        wst = WorkerStatusTable(1, FakeClock(), atomic=True,
                                torn_read_prob=1.0, rng=rng)
        wst.add_conns(0, 100)
        for _ in range(50):
            assert wst.read_all().conns == (100,)
        assert wst.torn_reads_served == 0

    def test_torn_mode_can_serve_mixed_halves(self):
        rng = RngRegistry(1).stream("torn")
        wst = WorkerStatusTable(1, FakeClock(), atomic=False,
                                torn_read_prob=1.0, rng=rng)
        old = 0x00000001_00000002
        new = 0x00000003_00000004
        wst.add_conns(0, old)
        wst.add_conns(0, new - old)
        seen = {wst.read_all().conns[0] for _ in range(100)}
        torn_candidates = {
            (old & ~0xFFFFFFFF) | (new & 0xFFFFFFFF),
            (new & ~0xFFFFFFFF) | (old & 0xFFFFFFFF),
        }
        assert seen & torn_candidates
        assert wst.torn_reads_served > 0

    def test_torn_mode_requires_rng(self):
        with pytest.raises(ValueError):
            WorkerStatusTable(1, FakeClock(), atomic=False,
                              torn_read_prob=0.5)

    @given(st.lists(st.integers(min_value=-5, max_value=10),
                    min_size=1, max_size=30))
    def test_atomic_reads_always_match_writes(self, deltas):
        """Property: in atomic mode a read reflects exactly the sum of
        prior deltas (floored at zero step-wise)."""
        wst = WorkerStatusTable(1, FakeClock())
        expected = 0
        for d in deltas:
            wst.add_events(0, d)
            expected = max(0, expected + d)
        assert wst.read_all().events[0] == expected

    def test_no_tear_when_value_unchanged(self):
        """``_maybe_torn`` mixes halves only while ``current != previous``
        — a settled cell has identical halves either way, so serving a
        "torn" read of it would be indistinguishable from a clean one."""
        rng = RngRegistry(2).stream("torn")
        wst = WorkerStatusTable(1, FakeClock(), atomic=False,
                                torn_read_prob=1.0, rng=rng)
        value = 0x00000007_00000009
        wst.add_conns(0, value)   # previous=0, current=value: tearable
        assert any(wst.read_all().conns[0] != value for _ in range(20))
        torn_before = wst.torn_reads_served
        wst.add_conns(0, 0)       # previous == current: settled
        for _ in range(50):
            assert wst.read_all().conns[0] == value
        assert wst.torn_reads_served == torn_before

    def test_torn_read_prob_is_respected(self):
        """At p=0.25 a settled-vs-changed cell tears on roughly a quarter
        of reads — never always, never never."""
        rng = RngRegistry(3).stream("torn")
        wst = WorkerStatusTable(1, FakeClock(), atomic=False,
                                torn_read_prob=0.25, rng=rng)
        n_reads = 400
        torn = 0
        for _ in range(n_reads):
            wst.add_events(0, 1)  # keep previous != current
            before = wst.torn_reads_served
            wst.read_all()
            torn += wst.torn_reads_served - before
        assert 0.15 < torn / n_reads < 0.35

    def test_zero_prob_never_tears(self):
        rng = RngRegistry(4).stream("torn")
        wst = WorkerStatusTable(1, FakeClock(), atomic=False,
                                torn_read_prob=0.0, rng=rng)
        for _ in range(50):
            wst.add_conns(0, 1)
            wst.read_all()
        assert wst.torn_reads_served == 0


class TestReadWorkerConsistency:
    def test_read_worker_matches_read_all_columns(self):
        clock = FakeClock()
        wst = WorkerStatusTable(4, clock)
        for wid in range(4):
            clock.now = 0.5 * (wid + 1)
            wst.touch_timestamp(wid)
            wst.add_events(wid, 3 * wid + 1)
            wst.add_conns(wid, 7 * wid)
        snap = wst.read_all()
        for wid in range(4):
            assert wst.read_worker(wid) == (snap.times[wid],
                                            snap.events[wid],
                                            snap.conns[wid])


class TestFrozenTimestamps:
    def test_freeze_stops_touch_then_unfreeze_resumes(self):
        clock = FakeClock()
        wst = WorkerStatusTable(2, clock)
        clock.now = 1.0
        wst.touch_timestamp(0)
        wst.freeze(0)
        clock.now = 2.0
        wst.touch_timestamp(0)
        wst.touch_timestamp(1)
        assert wst.times == (1.0, 2.0)  # frozen column kept its old stamp
        wst.unfreeze(0)
        clock.now = 3.0
        wst.touch_timestamp(0)
        assert wst.times[0] == 3.0

    def test_freeze_bounds_checked(self):
        wst = WorkerStatusTable(1, FakeClock())
        with pytest.raises(IndexError):
            wst.freeze(1)
        with pytest.raises(IndexError):
            wst.unfreeze(-1)

    def test_scheduler_staleness_filter_drops_frozen_worker(self):
        """The paper's FilterTime is exactly the defense that catches a
        stuck publisher: its loop-entry timestamp stops advancing, so the
        scheduler treats it as hung and stops steering to it."""
        clock = FakeClock()
        wst = WorkerStatusTable(3, clock)
        scheduler = CascadingScheduler(
            wst, BpfArrayMap(1), config=HermesConfig(hang_threshold=0.05),
            clock=clock)
        wst.freeze(1)
        clock.now = 0.1
        for wid in range(3):
            wst.touch_timestamp(wid)  # worker 1's stamp silently stays 0.0
        result = scheduler.schedule_and_sync()
        assert ids_from_bitmap(result.bitmap) == [0, 2]
        wst.unfreeze(1)
        clock.now = 0.12
        wst.touch_timestamp(1)
        result = scheduler.schedule_and_sync()
        assert ids_from_bitmap(result.bitmap) == [0, 1, 2]
