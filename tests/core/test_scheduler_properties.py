"""Property tests on scheduler invariants (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core import (
    BpfArrayMap,
    CascadingScheduler,
    HermesConfig,
    WorkerStatusTable,
    WstSnapshot,
    ids_from_bitmap,
    popcount64,
)

worker_count = st.integers(min_value=1, max_value=16)
metric = st.integers(min_value=0, max_value=1000)


def build(n, times, events, conns, now, **config_kwargs):
    clock = lambda: now  # noqa: E731
    wst = WorkerStatusTable(n, lambda: 0.0)
    for w in range(n):
        wst._times[w] = times[w]
        wst.add_events(w, events[w])
        wst.add_conns(w, conns[w])
    config = HermesConfig(**config_kwargs)
    return CascadingScheduler(wst, BpfArrayMap(1), config=config,
                              clock=clock)


@st.composite
def scheduler_state(draw):
    n = draw(worker_count)
    now = draw(st.floats(min_value=1.0, max_value=100.0))
    times = [draw(st.floats(min_value=0.0, max_value=100.0))
             for _ in range(n)]
    events = [draw(metric) for _ in range(n)]
    conns = [draw(metric) for _ in range(n)]
    theta = draw(st.floats(min_value=0.0, max_value=4.0))
    return n, now, times, events, conns, theta


class TestSchedulerInvariants:
    @given(scheduler_state())
    @settings(max_examples=150)
    def test_selection_is_subset_of_workers(self, state):
        n, now, times, events, conns, theta = state
        scheduler = build(n, times, events, conns, now, theta_ratio=theta)
        result = scheduler.schedule_and_sync()
        selected = ids_from_bitmap(result.bitmap)
        assert set(selected) <= set(range(n))
        assert result.n_selected == len(selected)
        assert popcount64(result.bitmap) == result.n_selected

    @given(scheduler_state())
    @settings(max_examples=150)
    def test_fresh_idle_empty_worker_always_selected(self, state):
        """A worker with a fresh timestamp, zero events, and zero conns
        can never be filtered out (it is at or below every baseline)."""
        n, now, times, events, conns, theta = state
        times[0], events[0], conns[0] = now, 0, 0
        scheduler = build(n, times, events, conns, now, theta_ratio=theta)
        result = scheduler.schedule_and_sync()
        assert 0 in ids_from_bitmap(result.bitmap)

    @given(scheduler_state())
    @settings(max_examples=100)
    def test_hung_worker_never_selected(self, state):
        n, now, times, events, conns, theta = state
        config_threshold = 0.05
        times[0] = now - 10.0  # way past any threshold
        scheduler = build(n, times, events, conns, now,
                          theta_ratio=theta,
                          hang_threshold=config_threshold)
        result = scheduler.schedule_and_sync()
        assert 0 not in ids_from_bitmap(result.bitmap)

    @given(scheduler_state(), st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=100)
    def test_larger_theta_is_monotone(self, state, extra):
        """Raising θ never shrinks a single FilterCount stage's output
        over a fixed candidate pool (the Fig. 15 knob's admissiveness).

        The *full cascade* is not monotone in θ: widening one stage
        changes the candidate pool the next stage averages over, which
        can drop a worker that previously survived (e.g. conns [0,1,1],
        events [1,0,0]: θ=0 selects the first worker, θ=1 admits the
        other two to the event stage, whose new baseline then drops it).
        """
        n, now, times, events, conns, theta = state
        for stage in ("conn", "event"):
            small, large = (
                build(n, times, events, conns, now, theta_ratio=ratio,
                      filter_order=(stage,)).select_workers(
                          WstSnapshot(tuple(times), tuple(events),
                                      tuple(conns)), now)
                for ratio in (theta, theta + extra))
            assert set(small) <= set(large)

    @given(scheduler_state())
    @settings(max_examples=100)
    def test_lowering_own_load_never_deselects(self, state):
        """Monotonicity: zeroing one worker's counters cannot remove it
        from the selection (given it was fresh)."""
        n, now, times, events, conns, theta = state
        times[0] = now
        base = build(n, times, events, conns, now, theta_ratio=theta)
        base_selected = 0 in ids_from_bitmap(
            base.schedule_and_sync().bitmap)
        events2, conns2 = list(events), list(conns)
        events2[0] = conns2[0] = 0
        better = build(n, times, events2, conns2, now, theta_ratio=theta)
        better_selected = 0 in ids_from_bitmap(
            better.schedule_and_sync().bitmap)
        if base_selected:
            assert better_selected

    @given(scheduler_state())
    @settings(max_examples=100)
    def test_deterministic(self, state):
        n, now, times, events, conns, theta = state
        a = build(n, times, events, conns, now, theta_ratio=theta)
        b = build(n, times, events, conns, now, theta_ratio=theta)
        assert a.schedule_and_sync().bitmap == \
            b.schedule_and_sync().bitmap


class _Clock:
    def __init__(self):
        self.now = 1.0

    def __call__(self):
        return self.now


_HANG = 0.05
_COSTS = (HermesConfig().costs,
          HermesConfig().costs.__class__(wst_read_per_worker=1e-6))
_ORDERS = (("time", "conn", "event", "capacity"), ("time", "conn", "event"),
           ("capacity", "conn"), ("event", "conn"))

_history_op = st.one_of(
    st.tuples(st.just("tick"), st.sampled_from([0.0, _HANG / 2, 2 * _HANG])),
    st.tuples(st.just("touch"), st.integers(0, 5)),
    st.tuples(st.just("events"), st.integers(0, 5), st.integers(-3, 3)),
    st.tuples(st.just("conns"), st.integers(0, 5), st.integers(-3, 3)),
    st.tuples(st.just("sync"), st.booleans()),
    st.tuples(st.just("config"), st.sampled_from([0.0, 0.5, 1.0]),
              st.sampled_from(_ORDERS), st.sampled_from(_COSTS)),
    st.tuples(st.just("limits"), st.one_of(
        st.none(), st.lists(st.one_of(st.none(), st.integers(0, 3)),
                            min_size=6, max_size=6))),
    st.just(("repeat",)),
)


class TestNoHiddenHistory:
    @given(n=st.integers(min_value=1, max_value=6),
           subset=st.booleans(),
           ops=st.lists(_history_op, max_size=30))
    @settings(max_examples=200)
    def test_long_lived_scheduler_matches_a_fresh_one(self, n, subset, ops):
        """Every reuse path the scheduler keeps (the exact memo and the
        result reuse) must be invisible: after any history, a long-lived
        scheduler decides exactly as one built just now."""
        clock = _Clock()
        wst = WorkerStatusTable(n, clock)
        worker_ids = list(range(0, n, 2)) if subset else None
        config = HermesConfig(hang_threshold=_HANG, filter_order=_ORDERS[0])
        sched = CascadingScheduler(wst, BpfArrayMap(1), config=config,
                                   clock=clock, worker_ids=worker_ids)
        # Each step changes one input (or none) and then schedules.
        for op in [("repeat",)] + ops:
            kind = op[0]
            if kind == "tick":
                clock.now += op[1]
            elif kind == "touch":
                wst.touch_timestamp(op[1] % n)
            elif kind == "events":
                wst.add_events(op[1] % n, op[2])
            elif kind == "conns":
                wst.add_conns(op[1] % n, op[2])
            elif kind == "sync":
                sched.sync_enabled = op[1]
            elif kind == "config":
                sched.config = HermesConfig(
                    hang_threshold=_HANG, theta_ratio=op[1],
                    filter_order=op[2], costs=op[3])
            elif kind == "limits":
                sched.capacity_limits = (None if op[1] is None
                                         else tuple(op[1][:n]))
            got = sched.schedule_and_sync()
            fresh = CascadingScheduler(
                wst, BpfArrayMap(1), config=sched.config, clock=clock,
                worker_ids=worker_ids,
                capacity_limits=sched.capacity_limits)
            fresh.sync_enabled = sched.sync_enabled
            # Equal bitmap, n_selected and cpu_cost.
            assert got == fresh.schedule_and_sync()
