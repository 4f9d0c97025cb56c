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
