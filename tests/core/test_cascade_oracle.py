"""The cascading scheduler against ``ref_cascade`` (hypothesis).

The cascade's stages answer "everyone passes" from one min/max/sum over
the whole WST column when they can.  These properties pin that shortcut to
the paper's definition over the shapes where it matters: hung workers,
all-equal and all-zero columns, n = 1..64, any ``filter_order`` (including
the ``capacity`` stage), and a tracer armed, whose ``sched.filter`` events
must say exactly what each reference stage kept and dropped.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracles import live_oracles, ref_cascade
from repro.core import (
    BpfArrayMap,
    CascadingScheduler,
    HermesConfig,
    WorkerStatusTable,
    WstSnapshot,
    ids_from_bitmap,
)
from repro.obs import Tracer

STAGES = ("time", "conn", "event", "capacity")
DEFAULT_ORDER = HermesConfig().filter_order
HANG = HermesConfig().hang_threshold

# Loop-entry ages straddling the hang threshold, plus arbitrary ones.
_AGES = st.one_of(st.sampled_from([0.0, 0.001, HANG * 0.999, HANG,
                                   HANG * 1.001, 1.0]),
                  st.floats(min_value=0.0, max_value=0.2))


@st.composite
def wst_state(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    # now = 0.0 makes ``now - (now - HANG) == HANG`` exact: the boundary.
    now = draw(st.one_of(st.just(0.0),
                         st.floats(min_value=0.0, max_value=100.0)))
    shape = draw(st.sampled_from(["random", "all_equal", "all_zero"]))
    if shape == "random":
        count = st.integers(min_value=0, max_value=draw(
            st.sampled_from([1, 5, 100, 10 ** 6])))
        ages = [draw(_AGES) for _ in range(n)]
        events = [draw(count) for _ in range(n)]
        conns = [draw(count) for _ in range(n)]
    else:
        value = 0 if shape == "all_zero" else draw(
            st.integers(min_value=0, max_value=1000))
        ages = [draw(_AGES)] * n
        events = [value] * n
        conns = [value] * n
    times = [now - age for age in ages]
    return n, now, times, events, conns


_ORDERS = st.one_of(
    st.just(DEFAULT_ORDER),
    st.permutations(STAGES).flatmap(
        lambda order: st.integers(min_value=1, max_value=4).map(
            lambda k: tuple(order[:k]))))


def _limits(n):
    return st.one_of(st.none(), st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
        min_size=n, max_size=n))


def _scheduler(n, now, times, events, conns, order, theta, limits,
               worker_ids=None):
    wst = WorkerStatusTable(n, clock=lambda: 0.0)
    for w in range(n):
        wst._times[w] = times[w]
        wst._events[w] = events[w]
        wst._conns[w] = conns[w]
    config = HermesConfig(filter_order=order, theta_ratio=theta)
    return CascadingScheduler(wst, BpfArrayMap(1), config=config,
                              clock=lambda: now, worker_ids=worker_ids,
                              capacity_limits=limits)


def _reference(universe, now, times, events, conns, order, theta, limits):
    """The final selection and the filter events each stage implies."""
    trace = []
    before = list(universe)
    for k, stage in enumerate(order):
        after = ref_cascade(times, events, conns, now, universe, HANG,
                            theta, order[:k + 1], limits)
        dropped = [w for w in before if w not in after]
        trace.append({
            "stage": stage, "before": len(before), "after": len(after),
            "dropped": dropped,
            "reason": CascadingScheduler.DROP_REASONS[stage]
            if dropped else None})
        before = after
    return before, trace


@given(state=wst_state(), order=_ORDERS,
       theta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                       st.floats(min_value=0.0, max_value=3.0)),
       traced=st.booleans(), dense=st.booleans(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_cascade_matches_reference(state, order, theta, traced, dense,
                                   data):
    n, now, times, events, conns = state
    limits = data.draw(_limits(n)) if "capacity" in order else None
    # Shuffled columns, or a subset, must never take the whole-column path.
    worker_ids = None if dense else data.draw(st.permutations(
        range(n)).flatmap(lambda ids: st.one_of(
            st.just(n), st.integers(min_value=1, max_value=n)).map(
                lambda k: list(ids[:k]))))
    scheduler = _scheduler(n, now, times, events, conns, order, theta,
                           limits, worker_ids)
    tracer = scheduler.tracer = Tracer() if traced else None
    result = scheduler.schedule_and_sync()
    universe = scheduler.worker_ids
    want, trace = _reference(universe, now, times, events, conns, order,
                             theta, limits)
    assert [universe[rank] for rank in ids_from_bitmap(result.bitmap)] == \
        want
    assert result.n_selected == len(want)
    if tracer is not None:
        assert [e.fields for e in tracer.events
                if e.name == "sched.filter"] == trace


@given(state=wst_state())
@settings(max_examples=50, deadline=None)
def test_count_stage_matches_its_gathered_form(state):
    # A FilterCount stage over the whole column (one sum/max) equals the
    # gathered form, forced here by a snapshot one column longer than the
    # candidate universe.
    n, now, times, events, conns = state
    for stage in ("conn", "event"):
        whole = _scheduler(n, now, times, events, conns, (stage,), 0.5, None)
        gathered = _scheduler(n, now, times, events, conns, (stage,), 0.5,
                              None)
        got_whole = whole.select_workers(WstSnapshot(
            tuple(times), tuple(events), tuple(conns)), now)
        got_gathered = gathered.select_workers(WstSnapshot(
            tuple(times) + (now,), tuple(events) + (0,),
            tuple(conns) + (0,)), now)
        assert got_whole == got_gathered
        assert (got_whole is whole._all_candidates) == \
            (got_gathered is gathered._all_candidates)


def test_shuffled_worker_ids_keep_their_own_column_values():
    # Candidate order (1, 0) is not the column order, so the count stage
    # must gather: worker 1 has 0 connections and survives, worker 0 not.
    scheduler = _scheduler(2, 0.0, [0.0, 0.0], [0, 0], [10, 0], ("conn",),
                           0.0, None, worker_ids=[1, 0])
    assert scheduler.select_workers(scheduler.wst.read_all(), 0.0) == [1]


def test_cpu_cost_follows_a_swapped_config():
    scheduler = _scheduler(4, 0.0, [0.0] * 4, [0] * 4, [0] * 4,
                           DEFAULT_ORDER, 0.5, None)
    costs = scheduler.config.costs
    scan = 4 * (costs.wst_read_per_worker + costs.scheduler_per_worker)
    assert scheduler.schedule_and_sync().cpu_cost == \
        scan + costs.map_update_syscall
    scheduler.sync_enabled = False
    assert scheduler.schedule_and_sync().cpu_cost == scan
    cheaper = costs.__class__(wst_read_per_worker=0.0,
                              scheduler_per_worker=0.0)
    scheduler.config = replace(scheduler.config, costs=cheaper)
    assert scheduler.schedule_and_sync().cpu_cost == 0.0


@pytest.fixture(scope="module")
def monitored_hermes_cell():
    from repro.experiments.common import run_case_cell
    from repro.lb.server import NotificationMode

    return run_case_cell(NotificationMode.HERMES, "case2", "light",
                         n_workers=4, duration=0.5, seed=7, check=True)


def test_live_oracles_check_a_monitored_hermes_cell(monitored_hermes_cell):
    # A checked run that returns had no oracle mismatch: run_checked
    # raises on exit for any mismatch counted inside it.
    result = monitored_hermes_cell
    assert result.completed > 0
    assert all(count > 0 for count in result.passes.values())
    assert result.comparisons["cascade"] > 0


@pytest.mark.pin
def test_live_oracles_compare_every_schedule(monitored_hermes_cell, pin):
    # One comparison per schedule_and_sync: a fast path that skipped the
    # select_workers seam would lower this exact count.
    pin("oracle/cascade_comparisons",
        monitored_hermes_cell.comparisons["cascade"])


# -- the exact memo and result reuse over a run of updates --------------------
_CONFIGS = (
    HermesConfig(),
    HermesConfig(),  # equal values, another object
    HermesConfig(theta_ratio=0.0),
    HermesConfig(theta_ratio=1.0, filter_order=("conn", "time", "event")),
    HermesConfig(hang_threshold=2 * HANG),
    HermesConfig(filter_order=("event", "capacity")),
    HermesConfig(filter_order=("capacity", "time", "conn")),
)

_STEPS = st.one_of(
    st.tuples(st.just("touch"), st.integers(0, 7)),
    st.tuples(st.just("events"), st.integers(0, 7), st.integers(-3, 3)),
    st.tuples(st.just("conns"), st.integers(0, 7), st.integers(-3, 3)),
    st.tuples(st.just("stale"), st.integers(0, 7)),
    st.tuples(st.just("tick"), st.sampled_from([0.001, HANG / 2, HANG])),
    st.tuples(st.just("config"), st.integers(0, len(_CONFIGS) - 1)),
    st.tuples(st.just("limits"), st.sampled_from([None, 1, 3])),
    st.tuples(st.just("sync"), st.booleans()),
    st.tuples(st.just("trace"), st.booleans()),
    st.just(("repeat",)),
)


@given(n=st.integers(min_value=1, max_value=8),
       steps=st.lists(_STEPS, min_size=1, max_size=40))
@settings(deadline=None)
def test_schedule_sequence_matches_reference(n, steps):
    # Every step mutates the table (or the config, limits, sync or tracer)
    # between two runs, so memo hits and each way of invalidating the memo
    # are checked against the reference.
    clock = {"now": 0.0}
    wst = WorkerStatusTable(n, clock=lambda: clock["now"])
    sel_map = BpfArrayMap(1)
    scheduler = CascadingScheduler(wst, sel_map, config=_CONFIGS[0],
                                   clock=lambda: clock["now"])
    with live_oracles() as stats:
        for step in [("repeat",)] + steps:
            kind, args = step[0], step[1:]
            if kind == "touch":
                wst.touch_timestamp(args[0] % n)
            elif kind == "events":
                wst.add_events(args[0] % n, args[1])
            elif kind == "conns":
                wst.add_conns(args[0] % n, args[1])
            elif kind == "stale":
                wst._times[args[0] % n] = clock["now"] - 2 * HANG
            elif kind == "tick":
                clock["now"] += args[0]
            elif kind == "config":
                scheduler.config = _CONFIGS[args[0]]
            elif kind == "limits":
                scheduler.capacity_limits = (
                    None if args[0] is None else (args[0],) * n)
            elif kind == "sync":
                scheduler.sync_enabled = args[0]
            elif kind == "trace":
                scheduler.tracer = Tracer() if args[0] else None
            result = scheduler.schedule_and_sync()
            config = scheduler.config
            want = ref_cascade(wst.times, wst.events, wst.conns,
                               clock["now"], range(n), config.hang_threshold,
                               config.theta_ratio, config.filter_order,
                               scheduler.capacity_limits)
            assert ids_from_bitmap(result.bitmap) == want
            assert (result.n_selected, result.n_workers) == (len(want), n)
            costs = config.costs
            scan = n * (costs.wst_read_per_worker
                        + costs.scheduler_per_worker)
            assert result.cpu_cost == scan + (
                costs.map_update_syscall if scheduler.sync_enabled else 0.0)
            if scheduler.sync_enabled:
                assert sel_map.read_from_user(0) == result.bitmap
    # The memo sits behind the oracle seam: every run was re-derived.
    assert stats.comparisons["cascade"] == scheduler.calls == len(steps) + 1
    assert stats.mismatches == 0


def test_memo_returns_the_previous_survivors_until_an_input_changes():
    scheduler = _scheduler(4, 0.0, [0.0] * 4, [0] * 4, [9, 0, 0, 0],
                           DEFAULT_ORDER, 0.5, None)
    wst = scheduler.wst
    first = scheduler.select_workers(wst.read_all(), 0.0)
    assert first == [1, 2, 3]
    # Equal columns and the same config object: the same list comes back.
    assert scheduler.select_workers(wst.read_all(), 0.0) is first
    wst.add_events(2, 1)
    wst.add_events(2, -1)  # a round trip leaves the column equal
    assert scheduler.select_workers(wst.read_all(), 0.0) is first
    # An updated column misses.
    wst.add_conns(1, 1)
    second = scheduler.select_workers(wst.read_all(), 0.0)
    assert second is not first and second == [1, 2, 3]
    # A config swap misses even when its values are equal.
    scheduler.config = replace(scheduler.config)
    assert scheduler.select_workers(wst.read_all(), 0.0) is not second
    # New capacity limits miss too (conns are now [9, 1, 0, 0]).
    scheduler.config = HermesConfig(filter_order=("capacity",))
    assert scheduler.select_workers(wst.read_all(), 0.0) == [0, 1, 2, 3]
    scheduler.capacity_limits = (1,) * 4
    assert scheduler.select_workers(wst.read_all(), 0.0) == [2, 3]
    scheduler.config = HermesConfig()
    # A hung worker bypasses the memo, and the cascade drops it.
    assert scheduler.select_workers(wst.read_all(), HANG) == []

