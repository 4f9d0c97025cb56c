"""Unit tests for the discrete-event engine."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_run_until_advances_clock_to_horizon():
    env = Environment()

    def proc(env):
        yield env.timeout(3)

    env.process(proc(env))
    env.run(until=10)
    assert env.now == 10


def test_run_backwards_rejected():
    env = Environment(initial_time=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_events_fire_in_time_order():
    env = Environment()
    log = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        log.append(tag)

    env.process(waiter(env, 3, "c"))
    env.process(waiter(env, 1, "a"))
    env.process(waiter(env, 2, "b"))
    env.run()
    assert log == ["a", "b", "c"]


def test_same_time_events_fire_in_creation_order():
    env = Environment()
    log = []

    def waiter(env, tag):
        yield env.timeout(1)
        log.append(tag)

    for tag in "abcde":
        env.process(waiter(env, tag))
    env.run()
    assert log == list("abcde")


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return "done"

    p = env.process(proc(env))
    env.run()
    assert p.ok
    assert p.value == "done"


def test_process_waits_on_process():
    env = Environment()

    def child(env):
        yield env.timeout(2)
        return 7

    def parent(env):
        result = yield env.process(child(env))
        return result * 2

    p = env.process(parent(env))
    env.run()
    assert p.value == 14


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()

    def opener(env):
        yield env.timeout(4)
        gate.succeed("open")

    def waiter(env):
        value = yield gate
        return (env.now, value)

    env.process(opener(env))
    p = env.process(waiter(env))
    env.run()
    assert p.value == (4, "open")


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    gate = env.event()

    def failer(env):
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    env.process(failer(env))
    p = env.process(waiter(env))
    env.run()
    assert p.value == "caught boom"


def test_fail_requires_exception_instance():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


def test_waiting_on_already_fired_event():
    env = Environment()
    ev = env.event()
    ev.succeed(99)

    def proc(env):
        value = yield ev
        return value

    env.run(until=1)  # let ev become processed
    p = env.process(proc(env))
    env.run()
    assert p.value == 99


def test_interrupt_delivers_cause():
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            return ("interrupted", intr.cause, env.now)

    def attacker(env, target):
        yield env.timeout(5)
        target.interrupt("reason")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert v.value == ("interrupted", "reason", 5)


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(10)
        return env.now

    def attacker(env, target):
        yield env.timeout(5)
        target.interrupt()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert v.value == 15


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(3, "slow")
        t2 = env.timeout(1, "fast")
        result = yield AnyOf(env, [t1, t2])
        return (env.now, list(result.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (1, ["fast"])


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env):
        t1 = env.timeout(3, "slow")
        t2 = env.timeout(1, "fast")
        result = yield AllOf(env, [t1, t2])
        return (env.now, sorted(result.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (3, ["fast", "slow"])


def test_or_and_operators():
    env = Environment()

    def proc(env):
        first = yield env.timeout(1, "a") | env.timeout(5, "b")
        both = yield env.timeout(1, "c") & env.timeout(2, "d")
        return (list(first.values()), sorted(both.values()), env.now)

    p = env.process(proc(env))
    env.run()
    assert p.value == (["a"], ["c", "d"], 3)


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield "not an event"

    p = env.process(bad(env))
    env.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_yield_number_is_direct_timer():
    # ``yield delay`` is the allocation-free equivalent of
    # ``yield env.timeout(delay)``: same clock advance, value None.
    env = Environment()
    seen = []

    def proc(env):
        got = yield 2.5
        seen.append((env.now, got))
        got = yield 1  # ints work too (bool is excluded)
        seen.append((env.now, got))
        return env.now

    p = env.process(proc(env))
    env.run()
    assert seen == [(2.5, None), (3.5, None)]
    assert p.ok and p.value == 3.5


def test_yield_negative_number_fails_process():
    env = Environment()

    def bad(env):
        yield -1.0

    p = env.process(bad(env))
    env.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)
    assert "negative timeout delay" in str(p.value)


def test_direct_timer_interrupt_leaves_stale_entry_harmless():
    # Interrupting a process parked on a direct timer must invalidate the
    # timer's heap entry: the process handles the interrupt, moves on, and
    # the stale pop must not resume it a second time.
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield 10.0
            log.append("timer fired")
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))
        yield 1.0
        log.append(("after", env.now))

    def poker(env, target):
        yield 3.0
        target.interrupt("wake up")

    p = env.process(sleeper(env))
    env.process(poker(env, p))
    env.run()  # drains the queue, including the stale entry at t=10
    assert log == [("interrupted", 3.0, "wake up"), ("after", 4.0)]
    assert p.ok


def test_schedule_callback():
    env = Environment()
    fired = []
    env.schedule_callback(7, lambda: fired.append(env.now))
    env.run()
    assert fired == [7]


def test_peek_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(9)
    assert env.peek() == 9


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_process_exception_is_recorded():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("kaboom")

    p = env.process(bad(env))
    env.run()
    assert not p.ok
    assert isinstance(p.value, RuntimeError)


def test_interrupt_race_with_completion_is_safe():
    """An interrupt landing at the exact time a process finishes is a no-op."""
    env = Environment()

    def victim(env):
        yield env.timeout(5)
        return "finished"

    def attacker(env, target):
        yield env.timeout(5)
        if target.is_alive:
            target.interrupt()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    # Whichever order the t=5 events fire in, the run must not blow up and
    # the victim must have a settled final state.
    assert v.triggered


def test_nested_process_failure_propagates():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise ValueError("child died")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return str(exc)

    p = env.process(parent(env))
    env.run()
    assert p.value == "child died"


# -- repro.perf fast-path regression coverage -------------------------------

def test_allof_wide_condition_incremental():
    # 1k-event AllOf: the incremental done-counter must fire the condition
    # exactly when the last sub-event processes (the recounting form was
    # O(n^2) here) and collect every value.
    env = Environment()
    width = 1000
    events = [env.timeout(float(i % 7), value=i) for i in range(width)]
    cond = AllOf(env, events)
    env.run()
    assert cond.ok
    assert len(cond.value) == width
    assert sorted(cond.value.values()) == list(range(width))
    assert cond._done == width


def test_anyof_wide_condition_incremental():
    env = Environment()
    events = [env.timeout(5.0 + i, value=i) for i in range(1000)]
    any_of = AnyOf(env, events)
    env.run(until=5.0)
    assert any_of.ok
    assert list(any_of.value.values()) == [0]


def test_schedule_callback_allocates_no_closure():
    # Satellite: the deferred-call path must carry the callable on a slot
    # and share one module-level trampoline — no per-event closure.
    from repro.sim import engine

    env = Environment()
    fired = []

    def cb():
        fired.append(env.now)

    ev = env.schedule_callback(3.0, cb)
    assert ev.fn is cb                      # plain attribute, not a cell
    assert ev.callbacks[0] is engine._invoke_callback  # shared trampoline
    assert engine._invoke_callback.__closure__ is None
    env.run()
    assert fired == [3.0]


def test_pooled_timeout_retained_by_user_is_not_recycled():
    # getrefcount guard: a timeout the user still holds keeps its value.
    env = Environment()
    held = env.timeout(1.0, value="keep me")
    results = []

    def proc(env):
        yield held
        results.append(held.value)
        # Churn more timeouts; none may alias the retained one.
        for _ in range(10):
            yield env.timeout(0.5)
        results.append(held.value)

    env.process(proc(env))
    env.run()
    assert results == ["keep me", "keep me"]
    assert held.processed


def test_event_pool_reuse_preserves_semantics():
    # Anonymous timeouts are recycled; behaviour stays indistinguishable.
    env = Environment()
    seen = []

    def proc(env):
        for i in range(2000):
            yield env.timeout(0.001)
            seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert len(seen) == 2000
    assert len(env._timeout_pool) >= 1  # the free list actually engaged


def test_steps_counter_counts_dispatched_events():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        yield 1.0

    p = env.process(proc(env))
    env.run()
    # Initialize + timeout + direct timer + process completion = 4 events.
    assert env.steps == 4
    assert p.ok


def test_same_time_direct_timers_fire_in_eid_order():
    env = Environment()
    order = []

    def stamp(i):
        yield 0.005
        order.append(i)

    for i in range(50):
        env.process(stamp(i))
    env.run()
    assert order == list(range(50))


@given(n=st.integers(min_value=2, max_value=60),
       delay=st.sampled_from([0.0, 1e-6, 0.001, 0.25]))
@settings(max_examples=25, deadline=None)
def test_same_tick_collision_preserves_eid_order(n, delay):
    # All n timers land on one timestamp: creation order must win.
    env = Environment()
    order = []

    def stamp(i):
        yield delay
        order.append(i)

    for i in range(n):
        env.process(stamp(i))
    env.run()
    assert order == list(range(n))
    assert env.now == delay


def test_stale_direct_timer_pop_advances_clock_and_counts_a_step():
    env = Environment()
    log = []

    def victim():
        try:
            yield 0.3
            log.append("slept")
        except Interrupt:
            log.append("interrupted")
            yield 0.05
            log.append("resumed")

    def killer(proc):
        yield 0.1
        proc.interrupt()

    p = env.process(victim())
    env.process(killer(p))
    env.run()
    assert log == ["interrupted", "resumed"]
    # 2 inits + killer timer + interrupt + victim timer + 2 completions,
    # then the stale t=0.3 entry: skipped, but popped and counted.
    assert env.now == 0.3
    assert env.steps == 8


def test_run_until_pauses_inside_timer_backlog():
    env = Environment()

    def tick():
        for _ in range(10):
            yield 0.25

    for _ in range(3):
        env.process(tick())
    env.run(until=1.1)
    assert env.now == 1.1
    assert env.steps == 3 + 3 * 4  # inits + fires at 0.25 .. 1.0


def test_peek_and_step_trajectory():
    env = Environment()

    def tick():
        yield 0.5
        yield 0.25

    env.process(tick())
    seen = []
    while env.peek() != float("inf"):
        seen.append(env.peek())
        env.step()
    # init, two direct timers, completion.
    assert seen == [0.0, 0.5, 0.75, 0.75]
    assert env.now == 0.75 and env.steps == 4


def _mixed_workload(env, log):
    """Timers, events, callbacks, interrupts and a far-future sleeper."""

    def worker(name, delay, n):
        for i in range(n):
            yield delay
            log.append(("tick", name, i, env.now))

    def waiter(name, ev):
        val = yield ev
        log.append(("woke", name, val, env.now))

    def sleeper(name, delay):
        try:
            yield delay
            log.append(("slept", name, env.now))
        except Interrupt as i:
            log.append(("intr", name, str(i), env.now))

    def interrupter(victims, delay):
        yield delay
        for v in victims:
            if v.is_alive:
                v.interrupt("bang")

    def chainer():
        v = yield env.timeout(0.013, value="tv")
        log.append(("chain1", v, env.now))
        yield 0.0
        log.append(("chain2", env.now))
        ev = env.event()
        env.schedule_callback(0.004, lambda: ev.succeed(42))
        log.append(("chain3", (yield ev), env.now))

    evs = [env.event() for _ in range(3)]
    for i, d in enumerate((0.001, 0.0017, 0.01, 0.05)):
        env.process(worker(f"w{i}", d, 40))
    for i, ev in enumerate(evs):
        env.process(waiter(f"wa{i}", ev))
    env.schedule_callback(0.0123, lambda: evs[0].succeed("a"))
    env.schedule_callback(0.0123, lambda: evs[1].succeed("b"))
    env.schedule_callback(0.5, lambda: evs[2].succeed("c"))
    victims = [env.process(sleeper(f"s{i}", 0.02 + i * 0.001))
               for i in range(4)]
    env.process(interrupter(victims[:2], 0.021))
    env.process(worker("far", 1e6, 1))
    env.process(chainer())


def _drive_mixed(horizons):
    env = Environment()
    log = []
    _mixed_workload(env, log)
    for horizon in horizons:
        env.run(until=horizon)
    env.run()
    return log, env.steps


def test_run_until_splits_do_not_change_the_run():
    whole = _drive_mixed([])
    assert len(whole[0]) > 100
    assert _drive_mixed([0.0105, 0.02, 0.0213, 0.3, 2.0]) == whole


def _churn_timeouts(env, log):
    def round_trip(tag):
        for i in range(20):
            got = yield env.timeout(0.001, value=(tag, i))
            log.append((got, env.now))

    env.process(round_trip("a"))
    env.process(round_trip("b"))
    env.run()


def test_pool_cap_bounds_free_lists(monkeypatch):
    from repro.sim import engine

    monkeypatch.setattr(engine, "_POOL_LIMIT", 4)
    env = Environment()

    # Burn through far more events than the cap; the pools must never
    # grow past it.
    def churn():
        for _ in range(100):
            yield env.timeout(0.001)

    env.process(churn())
    env.run()
    assert len(env._event_pool) <= 4
    assert len(env._timeout_pool) <= 4


def test_pool_overflow_falls_back_to_gc_without_leaking_state(monkeypatch):
    from repro.sim import engine

    monkeypatch.setattr(engine, "_POOL_LIMIT", 2)
    env = Environment()
    log = []
    _churn_timeouts(env, log)
    assert log[-1][0] == ("b", 19)
    assert len(env._event_pool) <= 2
    assert len(env._timeout_pool) <= 2
    gc.collect()
    # Pooled events are fully scrubbed: no value or callback leaks into
    # the next user through the free list.
    for pool in (env._event_pool, env._timeout_pool):
        for ev in pool:
            assert ev.callbacks == []
            assert ev._value is engine._PENDING
            assert not ev._processed and not ev._scheduled


def test_pool_cap_zero_disables_pooling(monkeypatch):
    from repro.sim import engine

    monkeypatch.setattr(engine, "_POOL_LIMIT", 0)
    env = Environment()
    _churn_timeouts(env, [])
    assert env._event_pool == [] and env._timeout_pool == []


def test_pool_cap_does_not_change_event_order(monkeypatch):
    from repro.sim import engine

    def drive():
        env = Environment()
        log = []
        _churn_timeouts(env, log)
        return log, env.steps

    pooled = drive()
    monkeypatch.setattr(engine, "_POOL_LIMIT", 0)
    assert drive() == pooled


# -- recycled callback events -------------------------------------------------

def test_callback_pool_reuses_events():
    env = Environment()
    fired = []
    for i in range(50):
        env.schedule_callback(float(i % 5), lambda i=i: fired.append(i))
    env.run()
    assert sorted(fired) == list(range(50))
    assert 1 <= len(env._callback_pool) <= 50
    pooled = env._callback_pool[-1]
    assert env.schedule_callback(1.0, lambda: fired.append("again")) is pooled
    env.run()
    assert fired[-1] == "again"


def test_held_callback_event_is_never_recycled():
    env = Environment()
    fired = []
    held = env.schedule_callback(1.0, lambda: fired.append("held"))
    for i in range(20):
        env.schedule_callback(0.5 + i, lambda i=i: fired.append(i))
    env.run()
    assert all(ev is not held for ev in env._callback_pool)
    for _ in range(30):
        assert env.schedule_callback(0.1, lambda: None) is not held
    env.run()
    assert fired.count("held") == 1
    assert held.processed and held.value is None


def test_process_waiting_on_callback_event_resumes_exactly_once():
    # A waiter appends its resumer to the event's callback list; a recycled
    # event must not carry it into its next use.
    from repro.sim import engine

    env = Environment()
    log = []

    def waiter():
        for i in range(5):
            value = yield env.schedule_callback(
                0.5, lambda: log.append(("fired", env.now)))
            log.append(("resumed", i, value, env.now))

    def bystander():
        # Draws recycled events while the waiter's are in use.
        for _ in range(10):
            yield env.schedule_callback(0.25, lambda: None)

    env.process(waiter())
    env.process(bystander())
    env.run()
    expected = []
    for i in range(5):
        now = 0.5 * (i + 1)
        expected += [("fired", now), ("resumed", i, None, now)]
    assert log == expected
    for ev in env._callback_pool:
        assert ev.callbacks == [engine._invoke_callback]
        assert ev.fn is None and ev._value is engine._PENDING
        assert not ev._processed and not ev._scheduled


def test_callback_pool_stays_within_the_limit(monkeypatch):
    from repro.sim import engine

    monkeypatch.setattr(engine, "_POOL_LIMIT", 4)
    env = Environment()
    fired = []
    for i in range(100):
        env.schedule_callback(float(i % 7), lambda: fired.append(1))
    env.run(until=3.5)
    assert len(env._callback_pool) <= 4
    env.run()
    assert len(fired) == 100
    assert len(env._callback_pool) == 4


def test_callback_pool_does_not_change_the_run(monkeypatch):
    from repro.sim import engine

    pooled = _drive_mixed([0.0105, 0.3])
    monkeypatch.setattr(engine, "_POOL_LIMIT", 0)
    assert _drive_mixed([0.0105, 0.3]) == pooled
