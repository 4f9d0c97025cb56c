"""Tests for the cascading scheduler (Algorithm 1)."""

import pytest

from repro.core import (
    BpfArrayMap,
    CascadingScheduler,
    HermesConfig,
    WorkerStatusTable,
    ids_from_bitmap,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_scheduler(n=4, **config_kwargs):
    clock = FakeClock()
    wst = WorkerStatusTable(n, clock)
    sel_map = BpfArrayMap(1)
    config = HermesConfig(**config_kwargs)
    sched = CascadingScheduler(wst, sel_map, config=config, clock=clock)
    return sched, wst, sel_map, clock


class TestFilterTime:
    def test_fresh_workers_pass(self):
        sched, wst, _, clock = make_scheduler(3)
        result = sched.schedule_and_sync()
        assert result.n_selected == 3

    def test_hung_worker_filtered(self):
        sched, wst, _, clock = make_scheduler(3, hang_threshold=0.05)
        clock.now = 0.1
        wst.touch_timestamp(0)
        wst.touch_timestamp(1)
        # Worker 2 last touched at t=0 — stale by 0.1 > 0.05.
        result = sched.schedule_and_sync()
        assert ids_from_bitmap(result.bitmap) == [0, 1]

    def test_all_hung_gives_empty_bitmap(self):
        sched, wst, _, clock = make_scheduler(3, hang_threshold=0.05)
        clock.now = 10.0
        result = sched.schedule_and_sync()
        assert result.bitmap == 0
        assert sched.empty_results == 1


class TestFilterCount:
    def test_overloaded_conn_worker_filtered(self):
        sched, wst, _, _ = make_scheduler(4, theta_ratio=0.5)
        # conns: [100, 10, 10, 10] -> avg=32.5, baseline=48.75.
        wst.add_conns(0, 100)
        for w in (1, 2, 3):
            wst.add_conns(w, 10)
        result = sched.schedule_and_sync()
        assert ids_from_bitmap(result.bitmap) == [1, 2, 3]

    def test_overloaded_event_worker_filtered(self):
        sched, wst, _, _ = make_scheduler(4, theta_ratio=0.5)
        wst.add_events(3, 200)
        for w in (0, 1, 2):
            wst.add_events(w, 5)
        result = sched.schedule_and_sync()
        assert ids_from_bitmap(result.bitmap) == [0, 1, 2]

    def test_uniform_load_keeps_everyone(self):
        """All-equal metrics (e.g. cold start) must not empty the set."""
        sched, wst, _, _ = make_scheduler(4, theta_ratio=0.5)
        result = sched.schedule_and_sync()
        assert result.n_selected == 4

    def test_theta_zero_still_keeps_at_most_half_under_skew(self):
        sched, wst, _, _ = make_scheduler(4, theta_ratio=0.0)
        for w, c in enumerate([1, 2, 30, 40]):
            wst.add_conns(w, c)
        result = sched.schedule_and_sync()
        # avg = 18.25; only workers 0 and 1 are <= avg.
        assert ids_from_bitmap(result.bitmap) == [0, 1]

    def test_larger_theta_admits_more_workers(self):
        def passed(ratio):
            sched, wst, _, _ = make_scheduler(5, theta_ratio=ratio)
            for w, c in enumerate([10, 20, 30, 40, 50]):
                wst.add_conns(w, c)
            return sched.schedule_and_sync().n_selected

        assert passed(0.0) <= passed(0.5) <= passed(1.0)

    def test_cascade_applies_both_counts(self):
        sched, wst, _, _ = make_scheduler(4, theta_ratio=0.2)
        # Worker 0: too many conns. Worker 1: too many events.
        wst.add_conns(0, 100)
        wst.add_events(1, 100)
        for w in (1, 2, 3):
            wst.add_conns(w, 10)
        for w in (2, 3):
            wst.add_events(w, 2)
        result = sched.schedule_and_sync()
        assert ids_from_bitmap(result.bitmap) == [2, 3]


class TestFilterOrder:
    def test_custom_order_is_respected(self):
        sched, wst, _, clock = make_scheduler(
            3, filter_order=("event",), theta_ratio=0.0)
        # Only the event filter runs: a hung worker with few events passes.
        clock.now = 100.0
        wst.add_events(0, 50)
        result = sched.schedule_and_sync()
        assert ids_from_bitmap(result.bitmap) == [1, 2]

    def test_invalid_stage_rejected(self):
        with pytest.raises(ValueError):
            HermesConfig(filter_order=("time", "bogus"))


class TestSync:
    def test_bitmap_written_to_map(self):
        sched, wst, sel_map, _ = make_scheduler(3)
        result = sched.schedule_and_sync()
        assert sel_map.read_from_user(0) == result.bitmap
        assert sel_map.user_updates == 1

    def test_local_rank_encoding_for_subset(self):
        """Workers with global ids >= 64 encode by local rank."""
        clock = FakeClock()
        wst = WorkerStatusTable(3, clock)
        sel_map = BpfArrayMap(1)
        sched = CascadingScheduler(
            wst, sel_map, clock=clock, worker_ids=(0, 1, 2))
        result = sched.schedule_and_sync()
        assert result.bitmap == 0b111

    def test_stats_accumulate(self):
        sched, wst, _, _ = make_scheduler(2)
        sched.schedule_and_sync()
        sched.schedule_and_sync()
        assert sched.calls == 2
        assert len(sched.pass_ratios) == 2

    def test_cpu_cost_positive_and_scales_with_workers(self):
        small, *_ = make_scheduler(2)
        large, *_ = make_scheduler(32)
        cost_small = small.schedule_and_sync().cpu_cost
        cost_large = large.schedule_and_sync().cpu_cost
        assert 0 < cost_small < cost_large

    def test_pass_ratio(self):
        sched, wst, _, clock = make_scheduler(4, hang_threshold=0.05)
        clock.now = 1.0
        wst.touch_timestamp(0)
        wst.touch_timestamp(1)
        result = sched.schedule_and_sync()
        assert result.pass_ratio == pytest.approx(0.5)


class TestFastPath:
    """repro.perf satellites: hoisted rank table, identity filters,
    zero-copy WST reads — all behaviour-preserving."""

    def test_rank_table_hoisted_into_init(self):
        sched, _, _, _ = make_scheduler(4)
        assert sched._rank == {0: 0, 1: 1, 2: 2, 3: 3}
        rank_before = sched._rank
        sched.schedule_and_sync()
        assert sched._rank is rank_before  # not rebuilt per call

    def test_rank_is_local_for_sparse_worker_ids(self):
        # Global ids above 63 must still map onto low bitmap bits.
        clock = FakeClock()
        wst = WorkerStatusTable(80, clock)
        sched = CascadingScheduler(wst, BpfArrayMap(1), clock=clock,
                                   worker_ids=[70, 75, 79])
        result = sched.schedule_and_sync()
        assert result.n_selected == 3
        assert ids_from_bitmap(result.bitmap) == [0, 1, 2]

    def test_no_drop_cascade_reuses_all_pass_bitmap(self):
        sched, _, _, _ = make_scheduler(4)
        result = sched.schedule_and_sync()
        assert result.bitmap == sched._all_bitmap == 0b1111

    def test_identity_fast_path_when_nothing_dropped(self):
        sched, wst, _, clock = make_scheduler(4)
        snapshot = wst.read_view()
        selected = sched.select_workers(snapshot, clock())
        assert selected is sched._all_candidates

    def test_filters_still_drop_with_view_reads(self):
        sched, wst, _, clock = make_scheduler(4, hang_threshold=1.0)
        clock.now = 5.0
        for w in (0, 1, 2):
            wst.touch_timestamp(w)  # worker 3 stays stale
        result = sched.schedule_and_sync()
        assert result.n_selected == 3
        assert ids_from_bitmap(result.bitmap) == [0, 1, 2]

    def test_traced_drop_lists_match_set_based_diff(self):
        class _Sink:
            def __init__(self):
                self.instants = []

            def instant(self, name, cat, **fields):
                self.instants.append((name, fields))

            def begin(self, *a, **k):
                pass

            def end(self, *a, **k):
                pass

        sched, wst, _, clock = make_scheduler(4, hang_threshold=1.0)
        sched.tracer = _Sink()
        clock.now = 5.0
        for w in (0, 2):
            wst.touch_timestamp(w)
        sched.schedule_and_sync()
        time_stage = [f for n, f in sched.tracer.instants
                      if n == "sched.filter" and f["stage"] == "time"]
        assert time_stage and time_stage[0]["dropped"] == [1, 3]

    def test_all_pass_result_is_reused(self):
        sched, *_ = make_scheduler(4)
        first = sched.schedule_and_sync()
        assert sched.schedule_and_sync() is first
        sched.sync_enabled = False
        unsynced = sched.schedule_and_sync()
        assert unsynced is not first
        assert unsynced.cpu_cost < first.cpu_cost
        assert sched.schedule_and_sync() is unsynced

    def test_all_pass_result_follows_a_swapped_config(self):
        sched, *_ = make_scheduler(4)
        before = sched.schedule_and_sync()
        costs = sched.config.costs
        dearer = costs.__class__(
            wst_read_per_worker=2 * costs.wst_read_per_worker,
            scheduler_per_worker=costs.scheduler_per_worker)
        sched.config = sched.config.with_overrides(costs=dearer)
        after = sched.schedule_and_sync()
        assert after is not before
        assert after.cpu_cost == 4 * (dearer.wst_read_per_worker
                                      + dearer.scheduler_per_worker) \
            + dearer.map_update_syscall
        assert after.cpu_cost > before.cpu_cost

    def test_partial_pass_between_all_passes(self):
        sched, wst, _, clock = make_scheduler(4, hang_threshold=1.0)
        all_pass = sched.schedule_and_sync()
        clock.now = 5.0
        for w in (0, 2):
            wst.touch_timestamp(w)
        partial = sched.schedule_and_sync()
        assert partial is not all_pass
        assert (partial.bitmap, partial.n_selected) == (0b0101, 2)
        for w in (1, 3):
            wst.touch_timestamp(w)
        assert sched.schedule_and_sync() is all_pass
        assert (all_pass.bitmap, all_pass.n_selected) == (0b1111, 4)

    def test_repeated_partial_bitmap_reuses_its_result(self):
        sched, wst, _, clock = make_scheduler(4, hang_threshold=1.0)
        clock.now = 5.0
        for w in (0, 2):
            wst.touch_timestamp(w)
        first = sched.schedule_and_sync()
        assert (first.bitmap, first.n_selected) == (0b0101, 2)
        assert sched.schedule_and_sync() is first
        sched.sync_enabled = False
        unsynced = sched.schedule_and_sync()
        assert unsynced is not first
        assert unsynced.bitmap == first.bitmap
        assert unsynced.cpu_cost < first.cpu_cost
        assert sched.schedule_and_sync() is unsynced
        sched.sync_enabled = True
        wst.touch_timestamp(1)
        other = sched.schedule_and_sync()
        assert (other.bitmap, other.n_selected) == (0b0111, 3)
        assert other is not first

    def test_select_workers_result_must_not_be_mutated_shared_list(self):
        # The identity fast path shares one list across calls: two no-drop
        # cascades must return the same object with stable contents.
        sched, wst, _, clock = make_scheduler(3)
        a = sched.select_workers(wst.read_view(), clock())
        b = sched.select_workers(wst.read_view(), clock())
        assert a is b
        assert a == [0, 1, 2]


class TestWstView:
    def test_view_matches_snapshot(self):
        clock = FakeClock()
        wst = WorkerStatusTable(3, clock)
        wst.add_events(1, 4)
        wst.add_conns(2, 7)
        clock.now = 1.5
        wst.touch_timestamp(0)
        view = wst.read_view()
        snap = wst.read_all()
        assert tuple(view.times) == snap.times
        assert tuple(view.events) == snap.events
        assert tuple(view.conns) == snap.conns
        assert view.n_workers == snap.n_workers == 3

    def test_view_is_cached_and_counts_read_ops(self):
        clock = FakeClock()
        wst = WorkerStatusTable(2, clock)
        before = wst.read_ops
        v1 = wst.read_view()
        v2 = wst.read_view()
        assert v1 is v2  # zero-allocation steady state
        assert wst.read_ops == before + 2

    def test_torn_mode_falls_back_to_copying_snapshot(self):
        from repro.core.wst import WstSnapshot
        from repro.sim.rng import RngRegistry

        clock = FakeClock()
        rng = RngRegistry(3).stream("torn")
        wst = WorkerStatusTable(2, clock, atomic=False,
                                torn_read_prob=0.5, rng=rng)
        snap = wst.read_view()
        assert isinstance(snap, WstSnapshot)
