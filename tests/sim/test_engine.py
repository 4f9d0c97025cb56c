"""Unit tests for the discrete-event engine."""

import gc
import traceback
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
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


def test_run_until_nan_rejected():
    env = Environment(initial_time=5)
    env.timeout(1)
    with pytest.raises(SimulationError, match="cannot run backwards"):
        env.run(until=float("nan"))
    assert env.now == 5 and env.steps == 0


@pytest.mark.parametrize("schedule", [
    lambda env, delay: env.timeout(delay),
    lambda env, delay: env.schedule_callback(delay, lambda: None),
], ids=["timeout", "schedule_callback"])
def test_nan_delay_rejected(schedule):
    # NaN compares false both ways; accepted, it would break heap order.
    env = Environment()
    with pytest.raises(SimulationError, match="negative timeout delay"):
        schedule(env, float("nan"))
    assert env.peek() == float("inf")
    env.run()
    assert env.now == 0.0


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
    with pytest.raises(SimulationError, match="terminated"):
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


def test_or_and_operators():
    # ``|`` composes an AnyOf; ``&`` composes nothing.
    env = Environment()

    def proc(env):
        first = yield env.timeout(1, "a") | env.timeout(5, "b")
        return (list(first.values()), env.now)

    p = env.process(proc(env))
    env.run()
    assert p.value == (["a"], 1)
    with pytest.raises(TypeError):
        env.event() & env.event()


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


# -- engine fast-path regression coverage -----------------------------------

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
    # A timeout the user still holds keeps its value.
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
    # A long run of anonymous timeouts resumes the process once each.
    env = Environment()
    seen = []

    def proc(env):
        for i in range(2000):
            yield env.timeout(0.001)
            seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert len(seen) == 2000


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


def test_step_alone_matches_run():
    # step() and run() are two copies of one dispatch body.
    env = Environment()
    log = []
    _mixed_workload(env, log)
    while env.peek() != float("inf"):
        env.step()
    assert (log, env.steps) == _drive_mixed([])


def test_dispatched_events_are_not_retained():
    # Once dispatched, an event is freed by refcount: the engine keeps no
    # free list of processed Event/Timeout/_Callback objects.
    from repro.sim.engine import Event, Timeout, _Callback

    def churn(env):
        for i in range(2000):
            assert (yield env.timeout(0.001, value=i)) == i
            if i % 100 == 0:
                ev = env.event()
                env.schedule_callback(0.0005, lambda: ev.succeed(i))
                assert (yield ev) == i

    def leftovers(env):
        return [o for o in gc.get_objects()
                if type(o) in (Event, Timeout, _Callback) and o.env is env]

    gc.collect()
    gc.disable()
    try:
        env = Environment()
        done = env.process(churn(env))
        env.run()
        assert done.ok and env.steps > 2000
        assert leftovers(env) == []
    finally:
        gc.enable()


def test_held_callback_event_is_never_recycled():
    env = Environment()
    fired = []
    held = env.schedule_callback(1.0, lambda: fired.append("held"))
    for i in range(20):
        env.schedule_callback(0.5 + i, lambda i=i: fired.append(i))
    env.run()
    for _ in range(30):
        assert env.schedule_callback(0.1, lambda: None) is not held
    env.run()
    assert fired.count("held") == 1
    assert held.processed and held.value is None


def test_process_waiting_on_callback_event_resumes_exactly_once():
    # A waiter appends its resumer to the event's callback list; it must
    # run once, after the callable, and never again.
    env = Environment()
    log = []

    def waiter():
        for i in range(5):
            value = yield env.schedule_callback(
                0.5, lambda: log.append(("fired", env.now)))
            log.append(("resumed", i, value, env.now))

    def bystander():
        # Schedules more callback events while the waiter's are in use.
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


# -- reclamation: finished processes and resolved conditions hold no cycle --

def _returns(env):
    yield env.timeout(1)
    return "done"


def _raises(env):
    yield env.timeout(1)
    raise RuntimeError("kaboom")


@pytest.mark.parametrize("until", [None, 10.0], ids=["run", "run_until"])
@pytest.mark.parametrize("body", [_returns, _raises])
def test_finished_process_is_freed_by_refcount(body, until):
    # Process has __slots__ and no __weakref__; it alone owns its
    # generator, so the generator's weakref tracks the process.
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        generator = body(env)
        probe = weakref.ref(generator)
        env.process(generator)
        del generator
        env.run(until=until)
        assert probe() is None
    finally:
        gc.enable()


def test_failed_process_keeps_its_generator_frames_on_the_traceback():
    env = Environment()
    p = env.process(_raises(env))
    env.run()
    names = [frame.f_code.co_name
             for frame, _line in traceback.walk_tb(p.value.__traceback__)]
    assert names == ["_raises"]


class _Token:
    """A weakref-able value; the resolved condition's value dict holds it."""


def test_resolved_any_of_is_freed_once_its_late_sub_event_fires():
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        value = _Token()
        probe = weakref.ref(value)
        fast, slow = env.timeout(1, value), env.timeout(5, "slow")
        AnyOf(env, [fast, slow])
        del value, fast, slow
        env.run(until=2)
        assert probe() is not None  # the slow sub-event still holds it
        env.run()
        assert probe() is None
    finally:
        gc.enable()
