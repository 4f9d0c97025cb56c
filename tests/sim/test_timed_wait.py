"""TimedWait: the engine's event-with-deadline wait.

``Epoll.wait`` once blocked with ``yield sleeper | env.timeout(t)``.  It
now yields one reused :class:`TimedWait`, calls ``expired()`` and replays
the AnyOf's hop with ``yield 0.0``.  Every test here drives the same
schedule through both forms, under both schedulers, and requires the same
resume times, the same resume order and the same ``env.steps``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt, SimulationError, TimedWait

SCHEDULERS = ("heap", "wheel")


def _timed_wait(env, form, event, delay):
    """One blocking wait, in the old AnyOf form or the way Epoll does it."""
    if form == "anyof":
        yield event | env.timeout(delay)
    else:
        wait = TimedWait(event, delay)
        yield wait
        wait.expired()
        yield 0.0


def _drive(sched, form, waiters, wakers=(), interrupts=(), tickers=(),
           horizons=()):
    """Run one schedule; return the event log and the ``steps`` trajectory.

    - ``waiters``: ``(gap, delay, rounds)``; each round sleeps ``gap`` and
      then waits on a fresh event for at most ``delay``.
    - ``wakers``: ``(waiter, chain)``; sleep through the chain of delays,
      then wake the waiter's latest event the way ``Epoll._poll_callback``
      does.  A longer chain arms its last timer later, so it pops later
      among events due at the same instant.
    - ``interrupts``: ``(waiter, chain)``; the same, but interrupt.
    - ``tickers``: chains of plain timers that log each fire.
    """
    env = Environment(scheduler=sched)
    log = []
    sleepers = {}
    procs = []

    def waiter(wid, gap, delay, rounds):
        for r in range(rounds):
            try:
                yield gap
                sleepers[wid] = event = env.event()
                yield from _timed_wait(env, form, event, delay)
                log.append(("resume", env.now, wid, r, event.triggered))
            except Interrupt:
                log.append(("intr", env.now, wid, r))

    def waker(wid, chain):
        for d in chain:
            yield d
        event = sleepers.get(wid)
        woke = event is not None and not event.triggered
        if woke:
            event.succeed()
        log.append(("wake", env.now, wid, woke))

    def interrupter(wid, chain):
        for d in chain:
            yield d
        if procs[wid].is_alive:
            procs[wid].interrupt("stop")

    def ticker(i, chain):
        for d in chain:
            yield d
            log.append(("tick", env.now, i))

    for i, chain in enumerate(tickers):
        env.process(ticker(i, chain))
    for wid, chain in wakers:
        env.process(waker(wid, chain))
    for wid, (gap, delay, rounds) in enumerate(waiters):
        procs.append(env.process(waiter(wid, gap, delay, rounds)))
    for wid, chain in interrupts:
        env.process(interrupter(wid % len(procs), chain))
    trajectory = []
    for horizon in horizons:
        env.run(until=horizon)
        trajectory.append((env.now, env.steps, len(log)))
    env.run()
    trajectory.append((env.now, env.steps))
    return log, trajectory


def _assert_equivalent(**schedule):
    """Both forms, both schedulers: one log and one ``steps`` trajectory."""
    runs = {(sched, form): _drive(sched, form, **schedule)
            for sched in SCHEDULERS for form in ("anyof", "timed")}
    reference = runs[("heap", "anyof")]
    for key, run in runs.items():
        assert run == reference, key
    return reference[0]


def test_timeout_wins():
    log = _assert_equivalent(waiters=[(0.0, 1.0, 3)])
    assert [entry[1] for entry in log] == [1.0, 2.0, 3.0]


def test_event_wins():
    log = _assert_equivalent(waiters=[(0.0, 1.0, 2)],
                             wakers=[(0, [0.5]), (0, [0.75])])
    assert ("resume", 0.5, 0, 0, True) in log
    assert ("resume", 0.75, 0, 1, True) in log


def test_event_and_deadline_coincide():
    # The waker's timer is older than the deadline, so it pops first at
    # t=1.0 and triggers the event; the deadline then pops before the
    # event does.  The process must resume exactly once.
    log = _assert_equivalent(waiters=[(0.0, 1.0, 2)], wakers=[(0, [1.0])])
    assert [e for e in log if e[0] == "resume"] == [
        ("resume", 1.0, 0, 0, True), ("resume", 2.0, 0, 1, False)]


def test_wakeup_in_the_hop_window():
    # The second wake is armed after the wait began, so at t=1.0 it pops
    # after the deadline but before the resume hop: it still counts as a
    # successful wake and pops as a no-op.
    log = _assert_equivalent(waiters=[(0.0, 1.0, 2)],
                             wakers=[(0, [0.5, 0.5])])
    assert log[:2] == [("wake", 1.0, 0, True), ("resume", 1.0, 0, 0, True)]
    assert log[-1] == ("resume", 2.0, 0, 1, False)


@pytest.mark.parametrize("wakers", [(), [(0, [0.35])], [(0, [1.2])]],
                         ids=["deadline-fires-later", "event-fires-later",
                              "event-after-deadline"])
def test_interrupted_while_waiting(wakers):
    # The interrupted wait leaves its condition armed; it fires as a
    # no-op when the first of its event and deadline pops.
    log = _assert_equivalent(waiters=[(0.1, 1.0, 2)], wakers=wakers,
                             interrupts=[(0, [0.3])])
    assert ("intr", 0.3, 0, 0) in log


def test_interrupted_in_the_hop_window():
    log = _assert_equivalent(waiters=[(0.0, 1.0, 2)],
                             wakers=[(0, [0.5, 0.5])],
                             interrupts=[(0, [0.5, 0.5])], tickers=[[1.0]])
    assert ("intr", 1.0, 0, 0) in log


def test_other_events_queued_at_the_resume_instant():
    # Timers older and younger than the deadline, a second waiter with the
    # same deadline, and zero-delay follow-ups all share t=1.0.
    log = _assert_equivalent(
        waiters=[(0.0, 1.0, 2), (0.0, 1.0, 2)],
        wakers=[(1, [0.25, 0.75])],
        tickers=[[1.0], [0.5, 0.5], [1.0, 0.0, 0.0], [0.25, 0.75, 0.0]])
    at_one = [entry[0] for entry in log if entry[1] == 1.0]
    first_resume = at_one.index("resume")
    assert "tick" in at_one[:first_resume]
    assert "tick" in at_one[first_resume:]


def test_run_until_splits_mid_wait():
    _assert_equivalent(waiters=[(0.0, 1.0, 3), (0.1, 0.5, 4)],
                       wakers=[(0, [0.5, 0.5]), (1, [0.7])],
                       interrupts=[(1, [1.05])], horizons=[0.5, 1.0, 1.05])


_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1e-6, 0.3])


@given(waiters=st.lists(st.tuples(_DELAYS, st.sampled_from([0.5, 1.0, 1e-6]),
                                  st.integers(min_value=1, max_value=3)),
                        min_size=1, max_size=4),
       wakers=st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                                 st.lists(_DELAYS, min_size=1, max_size=4)),
                       max_size=4),
       interrupts=st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                                     st.lists(_DELAYS, min_size=1,
                                              max_size=3)), max_size=2),
       tickers=st.lists(st.lists(_DELAYS, min_size=1, max_size=3),
                        max_size=3),
       horizons=st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5]),
                         max_size=2).map(sorted))
@settings(max_examples=60, deadline=None)
def test_random_schedules_match_the_anyof_form(waiters, wakers, interrupts,
                                               tickers, horizons):
    wakers = [(wid % len(waiters), chain) for wid, chain in wakers]
    _assert_equivalent(waiters=waiters, wakers=wakers,
                       interrupts=interrupts, tickers=tickers,
                       horizons=horizons)


@pytest.mark.parametrize("sched", SCHEDULERS)
def test_yield_value_and_expired(sched):
    env = Environment(scheduler=sched)
    seen = []

    def proc():
        fired = env.event()
        env.schedule_callback(0.2, lambda: fired.succeed("payload"))
        wait = TimedWait(fired, 1.0)
        seen.append((yield wait))
        seen.append((wait.expired(), env.now))
        wait.event = env.event()
        seen.append((yield wait))
        seen.append((wait.expired(), env.now))

    env.process(proc())
    env.run()
    assert seen == ["payload", (False, 0.2), None, (True, 1.2)]


def test_already_fired_event_continues_at_once():
    env = Environment()
    done = env.event()
    done.succeed(7)
    env.run()
    got = []

    def proc():
        got.append((yield TimedWait(done, 5.0)))
        got.append(env.now)

    env.process(proc())
    env.run()
    assert got == [7, 0.0]


def test_negative_delay_fails_the_process_like_a_negative_timer():
    env = Environment()

    def proc():
        yield TimedWait(env.event(), -1.0)

    process = env.process(proc())
    env.run()
    assert not process.ok
    assert isinstance(process.value, SimulationError)
    assert "negative timeout delay" in str(process.value)


@pytest.mark.parametrize("sched", SCHEDULERS)
def test_deadline_of_a_won_wait_never_fires(sched):
    env = Environment(scheduler=sched)
    resumed = []

    def proc():
        fired = env.event()
        env.schedule_callback(0.2, fired.succeed)
        yield TimedWait(fired, 1.0)
        resumed.append(env.now)
        yield env.event()  # never fires
        resumed.append(env.now)

    env.process(proc())
    env.run()
    assert resumed == [0.2]
