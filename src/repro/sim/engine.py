"""Discrete-event simulation engine.

A small, dependency-free coroutine kernel in the style of SimPy.  Processes
are Python generators that ``yield`` events; the environment advances a
virtual clock from event to event.  Determinism is guaranteed: events
scheduled for the same timestamp fire in (priority, insertion order).

The engine is the substrate every simulated component (kernel wait queues,
epoll instances, L7 workers, traffic generators) runs on.  It is deliberately
minimal — only the primitives the load-balancer model needs:

- :class:`Environment` — clock + event heap + ``run()``.
- :class:`Event` — one-shot triggerable value/error carrier.
- :class:`Timeout` — an event that fires after a delay.
- :class:`Process` — a running generator; itself an event that fires when
  the generator returns; supports :meth:`Process.interrupt`.
- :class:`AnyOf` / :class:`AllOf` — condition events.
- :class:`TimedWait` — wait on an event with a deadline (the allocation-free
  form of ``event | env.timeout(delay)``).

Performance notes (the ``repro.perf`` fast path)
------------------------------------------------
The engine's per-event cost is the unit economics of every sweep in this
repo, so the hot path is hand-flattened:

- ``Environment.run`` inlines the pop/dispatch loop (no ``step()`` call,
  no repeated attribute loads per event).
- A process may ``yield delay`` (a plain float/int) instead of
  ``yield env.timeout(delay)``: the engine schedules the resume directly
  on the heap with the same (time, priority, insertion-order) key the
  equivalent ``Timeout`` would have used, but allocates no event object
  and runs no callback list.  The yield expression evaluates to ``None``,
  exactly like a value-less timeout.
- ``Environment.timeout``/``event`` inline the whole construct+schedule
  sequence and draw from per-class free lists.  A processed ``Event`` or
  ``Timeout`` is recycled back into its pool only when
  ``sys.getrefcount`` proves the dispatch loop holds the sole remaining
  reference, so user code that retains an event (``t = env.timeout(5);
  yield t; t.value``) keeps exactly the semantics it always had.
- Scheduling goes through one flat sequence (eid bump + ``heappush``);
  ``Event.succeed``/``fail``/``Timeout.__init__`` perform it inline
  instead of chaining through ``_schedule``.
- ``AnyOf``/``AllOf`` maintain an incremental done-counter instead of
  recounting every sub-event per trigger (O(n) total, was O(n²)).
- ``schedule_callback`` allocates no per-event closure: the callable is
  carried on a slot of the event and invoked by one shared function.
- A :class:`TimedWait` arms its deadline as the process's own direct
  timer, so a blocking ``epoll_wait`` builds no Timeout and no AnyOf.

None of this changes observable behaviour: event ordering (time, priority,
insertion order), RNG draws, and error semantics are bit-identical to the
straightforward implementation — pinned by the golden-hash determinism
tests in ``tests/test_determinism_golden.py``.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
5
"""

from __future__ import annotations

import os
import sys
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "WheelEnvironment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "TimedWait",
    "SimulationError",
]

#: Priority for "urgent" events (fire before normal events at the same time).
URGENT = 0
#: Priority for ordinary events.
NORMAL = 1

#: Free-list capacity per event class (beyond this, objects fall to the GC).
_POOL_LIMIT = 1024


class SimulationError(Exception):
    """Raised for misuse of the simulation API."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending*, becomes *triggered* when scheduled, and
    *processed* once its callbacks have run.  It carries either a value
    (``succeed``) or an exception (``fail``).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "_scheduled")

    #: Sentinel for "no value yet".
    PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed = False
        self._scheduled = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if still pending."""
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now, NORMAL, eid, self))
        self._scheduled = True
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every waiting process.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now, NORMAL, eid, self))
        self._scheduled = True
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition -----------------------------------------------------
    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


_PENDING = Event.PENDING

# Shared "your timer fired" event handed to Process._resume by the direct
# timer fast path.  It is permanently ok/None — exactly what a value-less
# Timeout would deliver — so one immortal instance serves every fire.
_TICK = object.__new__(Event)
_TICK.env = None
_TICK.callbacks = None
_TICK._value = None
_TICK._ok = True
_TICK._processed = True
_TICK._scheduled = True


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Flat init: every slot set exactly once, scheduling inlined (no
        # super().__init__ that first writes PENDING just to overwrite it,
        # no _schedule hop).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._scheduled = True
        self.delay = delay
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now + delay, NORMAL, eid, self))


def _invoke_callback(event: "Event") -> None:
    """Shared trampoline for :meth:`Environment.schedule_callback` events."""
    event.fn()


class _Callback(Timeout):
    """A timeout carrying a plain callable on a slot (no closure per event)."""

    __slots__ = ("fn",)

    def __init__(self, env: "Environment", delay: float,
                 fn: Callable[[], None]):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = [_invoke_callback]
        self._value = None
        self._ok = True
        self._processed = False
        self._scheduled = True
        self.delay = delay
        self.fn = fn
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now + delay, NORMAL, eid, self))


class Initialize(Event):
    """Internal: kick-starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resumer]
        self._value = None
        self._ok = True
        self._processed = False
        self._scheduled = True
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now, URGENT, eid, self))


class TimedWait:
    """Yieldable: wait on ``event`` for at most ``delay`` time units.

    ``yield TimedWait(event, delay)`` is the allocation-free form of
    ``yield event | env.timeout(delay)``.  The deadline is the process's
    own direct timer, staged with the eid the Timeout would have taken, and
    the event gets the process's resumer: no Timeout, no AnyOf, no values
    dict.  The yield evaluates to the event's value, or ``None`` when the
    deadline popped first.  One instance may be reused for every wait of
    one process.

    Two things the AnyOf form did implicitly are left to the caller:

    - call :meth:`expired` right after resuming; on a timeout it detaches
      the process from the still-pending event, which could otherwise
      resume it a second time;
    - the AnyOf form resumed one ``(now, NORMAL, eid)`` hop later, through
      the condition's own entry.  A caller that must keep that order
      follows up with ``yield 0.0``.
    """

    __slots__ = ("event", "delay")

    def __init__(self, event: Optional[Event] = None, delay: float = 0.0):
        self.event = event
        self.delay = delay

    def expired(self) -> bool:
        """True if the deadline won; then detach the waiter from the event."""
        event = self.event
        if event._processed:
            return False
        process = event.env._active_process
        event.callbacks.remove(process._resumer)
        process._target = None
        return True

    def _abandon(self, process: "Process") -> Event:
        """Rebuild what an interrupted ``event | env.timeout(delay)`` leaves.

        That AnyOf stays armed on both sub-events and fires, as a no-op,
        when the first of them pops.  Re-arm an equivalent condition over
        the event and a stand-in for the timeout; the caller moves the
        stand-in into the deadline timer's queue slot (same key).
        """
        event = self.event
        event.callbacks.remove(process._resumer)
        deadline = Event(process.env)
        deadline._value = None
        deadline._scheduled = True
        AnyOf(process.env, (event, deadline))
        return deadline


class Process(Event):
    """A running generator-based process.

    A ``Process`` is itself an event: it triggers when the generator
    returns (with the return value) or raises (with the exception).
    """

    __slots__ = ("generator", "_target", "name", "_resumer", "_sched_eid",
                 "_sched_entry")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: What the process is suspended on: an Event or a TimedWait.
        self._target: Any = None
        #: The one bound-method object used for every callback registration
        #: (a fresh ``self._resume`` per suspend would allocate each time).
        self._resumer = self._resume
        #: eid of this process's own live heap entry (a ``yield delay``
        #: direct timer, or the completion entry pushed by ``_finalize``).
        #: Any popped entry whose eid differs is stale and is skipped.
        self._sched_eid = -1
        #: Wheel scheduler only: the live slot entry for this process's
        #: direct timer (a mutable list), so interrupt() can tombstone it
        #: in place instead of leaving a stale entry to re-classify.
        self._sched_entry = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        Interrupting a dead process, or a process from within itself,
        is an error.
        """
        if not self.is_alive:
            raise SimulationError(f"{self.name} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Deliver via an urgent event so interrupt wins races at equal time.
        env = self.env
        event = env.event()
        event._ok = False
        event._value = Interrupt(cause)
        event.callbacks.append(self._resumer)
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now, URGENT, eid, event))
        event._scheduled = True
        # Detach from the event the process was waiting on.  A timed wait
        # hands its deadline timer's slot to the condition the AnyOf form
        # would have left behind.
        target = self._target
        if target.__class__ is TimedWait:
            env._retarget_timer(self, target._abandon(self))
        elif target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resumer)
            except ValueError:
                pass
        self._target = None
        # A direct ``yield delay`` timer has no event to detach from:
        # invalidating _sched_eid turns its heap entry stale, and the
        # dispatch loop discards stale Process entries on pop.  Under the
        # wheel scheduler the live slot entry is additionally tombstoned in
        # place so the batched drain can skip it without consulting
        # _sched_eid.
        self._sched_eid = -1
        entry = self._sched_entry
        if entry is not None:
            entry[3] = None
            entry[4] = None
            self._sched_entry = None

    # -- scheduling core ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:
            # A stale wakeup (e.g. an interrupt racing process completion
            # at the same timestamp) must not touch a finished generator.
            return
        # Whatever armed timer is left (a timed wait's deadline) is over.
        self._sched_eid = -1
        entry = self._sched_entry
        if entry is not None:
            # Resuming via an event supersedes any armed direct-timer
            # entry (an interrupt delivered after the timer re-armed).
            # The heap scheduler catches this through the _sched_eid pop
            # guard; the wheel tombstones the entry in place.
            entry[3] = None
            entry[4] = None
            self._sched_entry = None
        env = self.env
        env._active_process = self
        self._target = None
        generator = self.generator
        if event._ok:
            try:
                target = generator.send(event._value)
            except StopIteration as exc:
                self._finalize(True, exc.value)
                env._active_process = None
                return
            except BaseException as exc:
                self._finalize(False, exc)
                env._active_process = None
                return
        else:
            # Propagate the failure (event error or interrupt) into the
            # generator; it may catch it and keep running.
            try:
                target = generator.throw(event._value)
            except StopIteration as stop:
                self._finalize(True, stop.value)
                env._active_process = None
                return
            except BaseException as err:
                self._finalize(False, err)
                env._active_process = None
                return
        cls = target.__class__
        if (cls is float or cls is int) and target >= 0:
            # Direct timer fast path: ``yield delay`` schedules the resume
            # itself — same (time, priority, eid) key a Timeout would get,
            # but no event object, no callback list.  The env hook lets the
            # wheel scheduler place the timer without a staging round trip.
            self._sched_eid = env._stage_timer(self, env._now + target)
            env._active_process = None
            return
        self._continue(target)
        env._active_process = None

    def _continue(self, target: Any) -> None:
        """Suspend on a yielded target (the non-direct-timer cases).

        Loops while targets are already fired, stepping the generator with
        their values; returns once the process is suspended (callback
        registered or direct timer scheduled) or finished.  The caller owns
        ``env._active_process``.
        """
        env = self.env
        generator = self.generator
        while True:
            cls = target.__class__
            if cls is float or cls is int:
                if target >= 0:
                    self._sched_eid = env._stage_timer(
                        self, env._now + target)
                    return
                exc = SimulationError(f"negative timeout delay: {target}")
                try:
                    generator.throw(exc)
                except BaseException as err:
                    self._finalize(False, err)
                    return
                raise exc

            if cls is TimedWait:
                delay = target.delay
                if delay < 0:
                    target = delay  # fails the process like ``yield -1``
                    continue
                event = target.event
                if not event._processed and event.env is env:
                    self._sched_eid = env._stage_timer(self, env._now + delay)
                    event.callbacks.append(self._resumer)
                    self._target = target
                    return
                target = event  # already fired (or foreign): handled below

            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}")
                try:
                    generator.throw(exc)
                except BaseException as err:
                    self._finalize(False, err)
                    return
                raise exc

            if target.env is not env:
                raise SimulationError(
                    "cannot wait on an event from another environment")

            callbacks = target.callbacks
            if not target._processed and callbacks is not None:
                callbacks.append(self._resumer)
                self._target = target
                return

            # Already fired: continue immediately with its value.
            if target._ok:
                try:
                    target = generator.send(target._value)
                except StopIteration as exc:
                    self._finalize(True, exc.value)
                    return
                except BaseException as exc:
                    self._finalize(False, exc)
                    return
            else:
                try:
                    target = generator.throw(target._value)
                except StopIteration as stop:
                    self._finalize(True, stop.value)
                    return
                except BaseException as err:
                    self._finalize(False, err)
                    return

    def _finalize(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        env = self.env
        self._sched_eid = env._stage_completion(self)
        self._scheduled = True


class _Condition(Event):
    """Base for AnyOf/AllOf composition events."""

    __slots__ = ("events", "_pending", "_done", "_checker")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("all condition events must share an environment")
        self._pending = 0
        #: Sub-events seen done (processed + ok) so far — incremented by
        #: ``_check`` instead of recounting the whole list per trigger.
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        checker = self._checker = self._check
        for event in self.events:
            if event.callbacks is None or event._processed:
                checker(event)
            else:
                self._pending += 1
                event.callbacks.append(checker)
        if self._value is _PENDING and self._pending == 0:
            # All already processed but condition not yet met (AllOf met it
            # inside _check; AnyOf with zero events handled above).
            self._evaluate(final=True)

    # Subclasses decide when the condition is satisfied.
    def _satisfied(self, done: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        done = self._done + 1
        self._done = done
        if self._satisfied(done, len(self.events)):
            self.succeed(self._collect())

    def _evaluate(self, final: bool = False) -> None:
        if self._satisfied(self._done, len(self.events)):
            self.succeed(self._collect())
        elif final:
            raise SimulationError("condition can never be satisfied")

    def _collect(self) -> dict:
        """Values of sub-events that have fired, in declaration order."""
        return {ev: ev._value for ev in self.events if ev._processed and ev._ok}


class AnyOf(_Condition):
    """Fires when any sub-event has fired."""

    __slots__ = ()

    def _satisfied(self, done: int, total: int) -> bool:
        return done >= 1


class AllOf(_Condition):
    """Fires when all sub-events have fired."""

    __slots__ = ()

    def _satisfied(self, done: int, total: int) -> bool:
        return done >= total


class Environment:
    """The simulation environment: virtual clock and event queue.

    Two schedulers share one external contract (bit-identical event order):

    - ``heap`` (default): a binary heap keyed on ``(when, priority, eid)``.
    - ``wheel``: a calendar-queue / timer wheel that drains whole same-tick
      slots in one sorted batch (see :class:`WheelEnvironment`).

    Select with ``Environment(scheduler="wheel")`` or ``REPRO_SCHED=wheel``
    in the process environment.
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_process", "steps",
                 "_event_pool", "_timeout_pool", "_pool_limit")

    def __new__(cls, initial_time: float = 0.0,
                scheduler: Optional[str] = None,
                free_list_cap: Optional[int] = None) -> "Environment":
        if cls is Environment:
            name = scheduler if scheduler is not None \
                else os.environ.get("REPRO_SCHED", "heap")
            if name == "wheel":
                return object.__new__(WheelEnvironment)
            if name != "heap":
                raise SimulationError(
                    f"unknown scheduler {name!r}; expected 'heap' or 'wheel'")
        return object.__new__(cls)

    def __init__(self, initial_time: float = 0.0,
                 scheduler: Optional[str] = None,
                 free_list_cap: Optional[int] = None):
        self._now = float(initial_time)
        self._queue: list = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Events dispatched so far (the engine-throughput denominator).
        self.steps = 0
        # Free lists for recycled one-shot events (exact-class matched).
        self._event_pool: list = []
        self._timeout_pool: list = []
        if free_list_cap is None:
            self._pool_limit = _POOL_LIMIT
        else:
            cap = int(free_list_cap)
            if cap < 0:
                raise SimulationError(
                    f"free_list_cap must be >= 0, got {free_list_cap!r}")
            self._pool_limit = cap

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def scheduler(self) -> str:
        """Name of the active scheduler implementation."""
        return "heap"

    @property
    def free_list_cap(self) -> int:
        """Per-class free-list capacity for recycled one-shot events."""
        return self._pool_limit

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event._value = _PENDING
            event._ok = True
            return event
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` units from now."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            event = pool.pop()
            event._value = value
            event._ok = True
            event._scheduled = True
            event.delay = delay
            eid = self._eid
            self._eid = eid + 1
            heappush(self._queue, (self._now + delay, NORMAL, eid, event))
            return event
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self._now + delay, priority, eid, event))

    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run a plain callable after ``delay`` (no process needed)."""
        return _Callback(self, delay, fn)

    def _stage_timer(self, process: "Process", when: float) -> int:
        """Schedule a direct ``yield delay`` resume for ``process``.

        Scheduler hook: the heap stages onto ``_queue``; the wheel
        override places the entry straight into its slot structure.
        Returns the eid the caller must record in ``_sched_eid``.
        """
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (when, NORMAL, eid, process))
        return eid

    def _stage_completion(self, process: "Process") -> int:
        """Schedule ``process``'s completion event at the current time."""
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self._now, NORMAL, eid, process))
        return eid

    def _retarget_timer(self, process: "Process", event: Event) -> None:
        """Hand ``process``'s live direct-timer entry over to ``event``.

        The entry keeps its ``(when, priority, eid)`` key, so the heap stays
        valid.  Interrupt-only, so a linear scan is fine.
        """
        eid = process._sched_eid
        queue = self._queue
        for index, entry in enumerate(queue):
            if entry[2] == eid:
                queue[index] = (entry[0], entry[1], eid, event)
                return

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def _dispatch(self, event: Event) -> None:
        """Process one popped event: run callbacks, maybe recycle it.

        Recycling is gated on ``sys.getrefcount``: exactly two references
        (the caller's local + the getrefcount argument) prove that no
        process, condition, or user variable still holds the event, so
        resetting it for reuse is invisible.
        """
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        for callback in callbacks:
            callback(event)
        cls = event.__class__
        if cls is Timeout:
            pool = self._timeout_pool
            if sys.getrefcount(event) == 2 and len(pool) < self._pool_limit:
                callbacks.clear()
                event.callbacks = callbacks
                event._processed = False
                event._scheduled = False
                event._value = _PENDING
                pool.append(event)
        elif cls is Event:
            pool = self._event_pool
            if sys.getrefcount(event) == 2 and len(pool) < self._pool_limit:
                callbacks.clear()
                event.callbacks = callbacks
                event._processed = False
                event._scheduled = False
                event._value = _PENDING
                pool.append(event)

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("no more events")
        when, _prio, eid, event = heappop(self._queue)
        self._now = when
        self.steps += 1
        if event.__class__ is Process:
            if event._sched_eid != eid:
                return  # stale direct-timer entry (interrupted/finished)
            if event._value is _PENDING:
                event._resume(_TICK)  # direct timer fired
                return
            # else: the completion entry — dispatch normally below.
        self._dispatch(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced exactly to it even if
        the queue drains earlier, so post-run measurements see a consistent
        horizon.
        """
        # The dispatch loop is inlined (no step()/_dispatch() call per
        # event); keep the three copies of the recycle block in sync.
        queue = self._queue
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        pool_limit = self._pool_limit
        getrefcount = sys.getrefcount
        steps = 0
        try:
            if until is None:
                while queue:
                    when, _prio, eid, event = heappop(queue)
                    self._now = when
                    steps += 1
                    cls = event.__class__
                    if cls is Process:
                        if event._sched_eid != eid:
                            continue  # stale direct-timer entry
                        if event._value is _PENDING:
                            # Direct timer fired.  Inline the dominant
                            # send → yield-another-delay cycle; defer any
                            # other outcome to the generic machinery.
                            self._active_process = event
                            try:
                                target = event.generator.send(None)
                            except StopIteration as exc:
                                self._active_process = None
                                event._finalize(True, exc.value)
                                continue
                            except BaseException as exc:
                                self._active_process = None
                                event._finalize(False, exc)
                                continue
                            tcls = target.__class__
                            if (tcls is float or tcls is int) and target >= 0:
                                neid = self._eid
                                self._eid = neid + 1
                                heappush(queue,
                                         (when + target, NORMAL, neid, event))
                                event._sched_eid = neid
                                self._active_process = None
                                continue
                            event._continue(target)
                            self._active_process = None
                            continue
                        # else: completion entry — dispatch normally.
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    if cls is Timeout:
                        if getrefcount(event) == 2 and \
                                len(timeout_pool) < pool_limit:
                            callbacks.clear()
                            event.callbacks = callbacks
                            event._processed = False
                            event._scheduled = False
                            event._value = _PENDING
                            timeout_pool.append(event)
                    elif cls is Event:
                        if getrefcount(event) == 2 and \
                                len(event_pool) < pool_limit:
                            callbacks.clear()
                            event.callbacks = callbacks
                            event._processed = False
                            event._scheduled = False
                            event._value = _PENDING
                            event_pool.append(event)
                return
            limit = float(until)
            if limit < self._now:
                raise SimulationError(
                    f"cannot run backwards: now={self._now}, until={limit}")
            while queue and queue[0][0] <= limit:
                when, _prio, eid, event = heappop(queue)
                self._now = when
                steps += 1
                cls = event.__class__
                if cls is Process:
                    if event._sched_eid != eid:
                        continue  # stale direct-timer entry
                    if event._value is _PENDING:
                        # Direct timer fired (see the until=None loop).
                        self._active_process = event
                        try:
                            target = event.generator.send(None)
                        except StopIteration as exc:
                            self._active_process = None
                            event._finalize(True, exc.value)
                            continue
                        except BaseException as exc:
                            self._active_process = None
                            event._finalize(False, exc)
                            continue
                        tcls = target.__class__
                        if (tcls is float or tcls is int) and target >= 0:
                            neid = self._eid
                            self._eid = neid + 1
                            heappush(queue,
                                     (when + target, NORMAL, neid, event))
                            event._sched_eid = neid
                            self._active_process = None
                            continue
                        event._continue(target)
                        self._active_process = None
                        continue
                    # else: completion entry — dispatch normally.
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if cls is Timeout:
                    if getrefcount(event) == 2 and \
                            len(timeout_pool) < pool_limit:
                        callbacks.clear()
                        event.callbacks = callbacks
                        event._processed = False
                        event._scheduled = False
                        event._value = _PENDING
                        timeout_pool.append(event)
                elif cls is Event:
                    if getrefcount(event) == 2 and \
                            len(event_pool) < pool_limit:
                        callbacks.clear()
                        event.callbacks = callbacks
                        event._processed = False
                        event._scheduled = False
                        event._value = _PENDING
                        event_pool.append(event)
            self._now = limit
        finally:
            self.steps += steps


#: Number of slots in the calendar ring (power of two → masked indexing).
_WHEEL_SLOTS = 512
_WHEEL_MASK = _WHEEL_SLOTS - 1
#: Tick values at/above this are "far": kept in the overflow heap without
#: computing int() (guards against inf deadlines overflowing int()).
_FAR_TICK = float(2 ** 62)


class WheelEnvironment(Environment):
    """Calendar-queue (timer-wheel) scheduler with bit-identical ordering.

    Drop-in replacement for the heap scheduler: same external contract,
    same ``(when, priority, eid)`` total order, selected via
    ``Environment(scheduler="wheel")`` or ``REPRO_SCHED=wheel``.

    Design
    ------
    - Time is bucketed into ticks of granularity ``g``:
      ``tick(when) = int(when / g)``.  ``x * (1/g)`` followed by ``int()``
      is monotone in ``x`` for any ``g > 0``, so bucketing can never
      reorder two events — each slot is sorted by the full
      ``(when, priority, eid)`` key before draining, which restores the
      exact heap order within a tick.
    - The ring covers ticks ``[base, base + 512)``; each slot holds exactly
      one tick (ticks are never scheduled more than a window ahead of
      ``base``, so no collision chains).  Deadlines beyond the window —
      and any non-finite ones — go to a fallback overflow heap and join
      their tick's batch when ``base`` reaches them.
    - Producers keep staging entries on the shared ``_queue`` heap (so
      ``Event.succeed``/``Timeout.__init__``/direct timers are scheduler
      agnostic); the run loop absorbs the staging batch before every
      dispatch.  Entries are mutable 5-lists ``[when, prio, eid, event,
      send]`` reused in place on the dominant timer→timer cycle: ``send``
      caches the generator's bound ``send`` for live direct timers and is
      ``None`` for generic events; ``event is None`` marks a tombstone
      (a stale direct-timer entry — interrupted or superseded — kept so
      ``steps`` matches the heap scheduler's stale-pop accounting).
    - Same-tick arrivals scheduled *while* the tick drains merge through
      the small ``_cur`` heap; everything else is one slot scan + one
      ``list.sort`` per tick instead of N heap pops — the batching that
      buys the O(1)-vs-O(log n) gap at scale.
    - ``g`` is retuned deterministically (quarter of the mean pending
      delay over a bounded sample) whenever the wheel runs dry and must
      re-anchor on the overflow heap.
    """

    __slots__ = ("_wheel", "_base", "_curb", "_g", "_inv_g", "_overflow",
                 "_cur", "_ovf_dirty")

    def __init__(self, initial_time: float = 0.0,
                 scheduler: Optional[str] = None,
                 free_list_cap: Optional[int] = None):
        super().__init__(initial_time, scheduler, free_list_cap)
        self._wheel = [[] for _ in range(_WHEEL_SLOTS)]
        # Start deliberately fine: a too-fine granularity self-heals (the
        # first real deadlines overflow the window, the wheel runs dry,
        # and _rebase retunes from their actual spacing), whereas a
        # too-coarse one would funnel everything through the merge heap.
        self._g = 1e-6
        self._inv_g = 1e6
        self._base = int(self._now * 1e6)
        #: Ticks <= _curb live in the ``_cur`` merge heap, never in slots.
        self._curb = self._base - 1
        self._overflow: list = []
        #: True while ``_overflow`` is an unordered append pile; it is
        #: heapified (or sorted, by ``_rebase``) before any read.  Keeps
        #: the mass first-yield migration at startup O(n log n) in C
        #: instead of n Python-level heappushes.
        self._ovf_dirty = False
        self._cur: list = []

    @property
    def scheduler(self) -> str:
        return "wheel"

    # -- scheduler hooks (bypass the staging queue) ----------------------
    def _stage_timer(self, process: "Process", when: float) -> int:
        """Place a direct-timer entry straight into the wheel.

        Skips the staging-queue round trip the generic producers pay:
        the entry is classified against the live ``_base``/``_curb``
        (kept in sync by ``run`` before any user code executes).
        """
        eid = self._eid
        self._eid = eid + 1
        entry = [when, NORMAL, eid, process, process.generator.send]
        process._sched_entry = entry
        t = when * self._inv_g
        if t < _FAR_TICK:
            tick = int(t)
            if tick <= self._curb:
                heappush(self._cur, entry)
            elif tick < self._base + _WHEEL_SLOTS:
                self._wheel[tick & _WHEEL_MASK].append(entry)
            else:
                self._overflow.append(entry)
                self._ovf_dirty = True
        else:
            self._overflow.append(entry)
            self._ovf_dirty = True
        return eid

    def _stage_completion(self, process: "Process") -> int:
        """Place a process-completion entry (generic dispatch, no timer)."""
        eid = self._eid
        self._eid = eid + 1
        when = self._now
        entry = [when, NORMAL, eid, process, None]
        t = when * self._inv_g
        if t < _FAR_TICK:
            tick = int(t)
            if tick <= self._curb:
                heappush(self._cur, entry)
            elif tick < self._base + _WHEEL_SLOTS:
                self._wheel[tick & _WHEEL_MASK].append(entry)
            else:
                self._overflow.append(entry)
                self._ovf_dirty = True
        else:
            self._overflow.append(entry)
            self._ovf_dirty = True
        return eid

    def _retarget_timer(self, process: "Process", event: Event) -> None:
        """Turn ``process``'s live timer entry into a generic ``event`` one."""
        entry = process._sched_entry
        entry[3] = event
        entry[4] = None
        process._sched_entry = None

    # -- internal machinery ----------------------------------------------
    def _retune(self, sample: list) -> None:
        """Pick a slot granularity from pending deadlines and re-anchor.

        Deterministic: the sample is the first entries of a heap in its
        array order.  Only called while the wheel and ``_cur`` are empty,
        so no stored entry was placed under the old granularity.
        """
        now = self._now
        total = 0.0
        k = 0
        for item in sample[:64]:
            d = item[0] - now
            if 0.0 < d < 1e18:
                total += d
                k += 1
        if k:
            g = total / k * 0.25
            if g > 0.0:
                self._g = g
                self._inv_g = 1.0 / g
        t = now * self._inv_g
        self._base = int(t) if t < _FAR_TICK else 0
        self._curb = self._base - 1

    def _rebase(self) -> None:
        """Re-anchor on the overflow heap after the wheel ran dry.

        The overflow list is sorted once (C-speed) and the in-window
        prefix moved out in bulk; the sorted remainder is a valid heap.
        """
        overflow = self._overflow
        self._retune(overflow)
        overflow.sort()
        self._ovf_dirty = False
        inv_g = self._inv_g
        base = self._base
        wheel = self._wheel
        wlimit = base + _WHEEL_SLOTS
        k = 0
        for entry in overflow:
            t = entry[0] * inv_g
            if t >= _FAR_TICK:
                break
            tick = int(t)
            if tick >= wlimit:
                break
            if tick <= base:
                heappush(self._cur, entry)
                self._curb = base
            else:
                wheel[tick & _WHEEL_MASK].append(entry)
            k += 1
        if k:
            del overflow[:k]
        elif overflow:
            # Far/non-finite deadlines only: hand the earliest to the
            # merge heap so the run loop still makes progress.
            heappush(self._cur, overflow.pop(0))
            self._curb = base

    def _absorb(self, base: int, boundary: int) -> None:
        """Move staged ``(when, prio, eid, event)`` tuples into the wheel.

        Ticks ``<= boundary`` go to the ``_cur`` merge heap (the tick
        currently draining, or an already-passed one); in-window ticks go
        to their slot; the rest to the overflow heap.
        """
        queue = self._queue
        wheel = self._wheel
        overflow = self._overflow
        cur = self._cur
        inv_g = self._inv_g
        wlimit = base + _WHEEL_SLOTS
        for when, prio, eid, event in queue:
            if event.__class__ is Process:
                if event._sched_eid != eid:
                    # Stale direct-timer entry: tombstone it so ``steps``
                    # counts it exactly where the heap would have.
                    entry = [when, prio, eid, None, None]
                elif event._value is _PENDING:
                    entry = [when, prio, eid, event, event.generator.send]
                    event._sched_entry = entry
                else:
                    entry = [when, prio, eid, event, None]  # completion
            else:
                entry = [when, prio, eid, event, None]
            t = when * inv_g
            if t < _FAR_TICK:
                tick = int(t)
                if tick <= boundary:
                    heappush(cur, entry)
                elif tick < wlimit:
                    wheel[tick & _WHEEL_MASK].append(entry)
                else:
                    overflow.append(entry)
                    self._ovf_dirty = True
            else:
                overflow.append(entry)
                self._ovf_dirty = True
        del queue[:]

    def _dispatch_entry(self, entry: list, base: int, boundary: int) -> None:
        """Dispatch one wheel entry (the generic, non-batched path)."""
        event = entry[3]
        if event is None:
            self._now = entry[0]  # tombstone: advance the clock, skip
            return
        when = entry[0]
        self._now = when
        send = entry[4]
        if send is not None:
            # Live direct timer.
            self._active_process = event
            try:
                target = send(None)
            except StopIteration as exc:
                self._active_process = None
                event._sched_entry = None
                event._finalize(True, exc.value)
                return
            except BaseException as exc:
                self._active_process = None
                event._sched_entry = None
                event._finalize(False, exc)
                return
            tcls = target.__class__
            if (tcls is float or tcls is int) and target >= 0:
                eid = self._eid
                self._eid = eid + 1
                nw = when + target
                entry[0] = nw
                entry[2] = eid
                event._sched_eid = eid
                t = nw * self._inv_g
                if t < _FAR_TICK:
                    tick = int(t)
                    if tick <= boundary:
                        heappush(self._cur, entry)
                    elif tick < base + _WHEEL_SLOTS:
                        self._wheel[tick & _WHEEL_MASK].append(entry)
                    else:
                        self._overflow.append(entry)
                        self._ovf_dirty = True
                else:
                    self._overflow.append(entry)
                    self._ovf_dirty = True
                self._active_process = None
                return
            event._sched_entry = None
            event._continue(target)
            self._active_process = None
            return
        # Generic event or process completion entry.  Inlined dispatch:
        # clearing entry[3] first lets the refcount recycle gate see the
        # same two references the heap loop's pop would have left.
        entry[3] = None
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        for callback in callbacks:
            callback(event)
        ecls = event.__class__
        if ecls is Timeout:
            pool = self._timeout_pool
            if sys.getrefcount(event) == 2 and len(pool) < self._pool_limit:
                callbacks.clear()
                event.callbacks = callbacks
                event._processed = False
                event._scheduled = False
                event._value = _PENDING
                pool.append(event)
        elif ecls is Event:
            pool = self._event_pool
            if sys.getrefcount(event) == 2 and len(pool) < self._pool_limit:
                callbacks.clear()
                event.callbacks = callbacks
                event._processed = False
                event._scheduled = False
                event._value = _PENDING
                pool.append(event)

    def _pop_next(self) -> Optional[list]:
        """Pop the globally smallest pending entry (cold path for step())."""
        if self._queue:
            self._absorb(self._base, self._curb)
        cur = self._cur
        overflow = self._overflow
        if overflow and self._ovf_dirty:
            heapify(overflow)
            self._ovf_dirty = False
        wheel = self._wheel
        slot_entry = None
        slot = None
        b = self._base
        for _ in range(_WHEEL_SLOTS):
            cand = wheel[b & _WHEEL_MASK]
            if cand:
                cand.sort()
                slot_entry = cand[0]
                slot = cand
                break
            b += 1
        best = None
        src = 0
        if cur:
            best = cur[0]
            src = 1
        if slot_entry is not None and (best is None or slot_entry < best):
            best = slot_entry
            src = 2
        if overflow and (best is None or overflow[0] < best):
            best = overflow[0]
            src = 3
        if best is None:
            return None
        if src == 1:
            return heappop(cur)
        if src == 3:
            return heappop(overflow)
        del slot[0]
        return best

    # -- public API overrides --------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none.

        Stale (tombstoned) entries keep their deadline, matching the heap
        scheduler, whose ``peek`` also sees stale entries.
        """
        best = float("inf")
        queue = self._queue
        if queue and queue[0][0] < best:
            best = queue[0][0]
        cur = self._cur
        if cur and cur[0][0] < best:
            best = cur[0][0]
        overflow = self._overflow
        if overflow:
            if self._ovf_dirty:
                heapify(overflow)
                self._ovf_dirty = False
            if overflow[0][0] < best:
                best = overflow[0][0]
        for slot in self._wheel:
            for entry in slot:
                if entry[0] < best:
                    best = entry[0]
        return best

    def step(self) -> None:
        """Process the next scheduled event."""
        entry = self._pop_next()
        if entry is None:
            raise SimulationError("no more events")
        self.steps += 1
        self._dispatch_entry(entry, self._base, self._curb)

    def run(self, until: Optional[float] = None) -> None:
        """Run until everything drains or the clock reaches ``until``."""
        if until is None:
            limit = None
        else:
            limit = float(until)
            if limit < self._now:
                raise SimulationError(
                    f"cannot run backwards: now={self._now}, until={limit}")
        queue = self._queue
        wheel = self._wheel
        overflow = self._overflow
        cur = self._cur
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        pool_limit = self._pool_limit
        getrefcount = sys.getrefcount
        mask = _WHEEL_MASK
        far = _FAR_TICK
        base = self._base
        curb = self._curb
        inv_g = self._inv_g
        steps = 0
        try:
            while True:
                if queue:
                    self._absorb(base, curb)
                # Drain carried-over entries (ticks <= curb) first; they
                # strictly precede every slot/overflow entry.
                while cur:
                    entry = cur[0]
                    if limit is not None and entry[0] > limit:
                        self._now = limit
                        return
                    heappop(cur)
                    steps += 1
                    self._dispatch_entry(entry, base, curb)
                    if queue:
                        self._absorb(base, curb)
                # Pick the next tick: first occupied slot vs overflow top.
                ovf_tick = None
                if overflow:
                    if self._ovf_dirty:
                        heapify(overflow)
                        self._ovf_dirty = False
                    t = overflow[0][0] * inv_g
                    if t < far:
                        ovf_tick = int(t)
                b = base
                idx = b & mask
                run = wheel[idx]
                scanned = 0
                while not run:
                    if ovf_tick is not None and b >= ovf_tick:
                        break
                    scanned += 1
                    if scanned > mask:
                        run = None
                        break
                    b += 1
                    idx = b & mask
                    run = wheel[idx]
                if run is None:
                    if overflow:
                        self._rebase()
                        base = self._base
                        curb = self._curb
                        inv_g = self._inv_g
                        continue
                    if queue or cur:
                        continue  # raced in via a rebase hand-off
                    if limit is not None:
                        self._now = limit
                    return
                base = b
                wheel[idx] = []
                # Publish before any user code runs: _stage_timer/
                # _stage_completion classify against these live bounds.
                self._base = base
                self._curb = base
                if ovf_tick is not None and ovf_tick <= base:
                    while overflow:
                        t = overflow[0][0] * inv_g
                        if t >= far or int(t) > base:
                            break
                        run.append(heappop(overflow))
                run.sort()
                if limit is not None:
                    t = limit * inv_g
                    if t < far and int(t) <= base:
                        # Horizon ends inside this tick: route the batch
                        # through the merge heap, which enforces the limit
                        # entry by entry at the top of the loop.
                        cur.extend(run)  # sorted list is a valid heap
                        curb = base
                        continue
                # ---- fast batched drain of tick ``base`` ----
                # ``_active_process`` is cleared lazily on this path: no
                # user code observes it between two timer fires, so the
                # next fire's store overwrites it; every exit that can
                # reach user code (generic dispatch, cur merge, loop end,
                # exception repair) clears it explicitly.
                wlimit = base + _WHEEL_SLOTS
                ndisp = 0
                now_l = self._now
                try:
                    for entry in run:
                        if queue:
                            self._absorb(base, base)
                        if cur:
                            self._active_process = None
                            while cur and cur[0] < entry:
                                e = heappop(cur)
                                steps += 1
                                self._dispatch_entry(e, base, base)
                                if queue:
                                    self._absorb(base, base)
                        ndisp += 1
                        send = entry[4]
                        if send is not None:
                            # Dominant cycle: direct timer fires, process
                            # yields the next delay, entry is reused.
                            event = entry[3]
                            when = entry[0]
                            if when != now_l:
                                self._now = now_l = when
                            self._active_process = event
                            try:
                                target = send(None)
                            except StopIteration as exc:
                                event._sched_entry = None
                                event._finalize(True, exc.value)
                                continue
                            except BaseException as exc:
                                event._sched_entry = None
                                event._finalize(False, exc)
                                continue
                            tcls = target.__class__
                            if (tcls is float or tcls is int) and target >= 0:
                                neid = self._eid
                                self._eid = neid + 1
                                nw = when + target
                                entry[0] = nw
                                entry[2] = neid
                                # (_sched_eid is not refreshed here: wheel
                                # staleness is tracked by tombstoning the
                                # entry itself, and direct timers never
                                # appear on the staging queue.)
                                t = nw * inv_g
                                if t < far:
                                    tick = int(t)
                                    if tick > base:
                                        if tick < wlimit:
                                            wheel[tick & mask].append(entry)
                                        else:
                                            overflow.append(entry)
                                            self._ovf_dirty = True
                                    else:
                                        heappush(cur, entry)
                                else:
                                    overflow.append(entry)
                                    self._ovf_dirty = True
                                continue
                            event._sched_entry = None
                            event._continue(target)
                            self._active_process = None
                            continue
                        event = entry[3]
                        if event is None:
                            if entry[0] != now_l:
                                self._now = now_l = entry[0]
                            continue  # tombstone
                        # Generic event / completion entry: inline the
                        # dispatch + refcount-gated recycle (keep in sync
                        # with Environment.run).
                        self._active_process = None
                        entry[3] = None
                        if entry[0] != now_l:
                            self._now = now_l = entry[0]
                        callbacks = event.callbacks
                        event.callbacks = None
                        event._processed = True
                        for callback in callbacks:
                            callback(event)
                        ecls = event.__class__
                        if ecls is Timeout:
                            if getrefcount(event) == 2 and \
                                    len(timeout_pool) < pool_limit:
                                callbacks.clear()
                                event.callbacks = callbacks
                                event._processed = False
                                event._scheduled = False
                                event._value = _PENDING
                                timeout_pool.append(event)
                        elif ecls is Event:
                            if getrefcount(event) == 2 and \
                                    len(event_pool) < pool_limit:
                                callbacks.clear()
                                event.callbacks = callbacks
                                event._processed = False
                                event._scheduled = False
                                event._value = _PENDING
                                event_pool.append(event)
                except BaseException:
                    # A callback raised: preserve the undrained remainder
                    # (the heap scheduler would keep it on the queue).
                    self._active_process = None
                    steps += ndisp
                    for e in run[ndisp:]:
                        heappush(cur, e)
                    curb = base
                    raise
                self._active_process = None
                steps += ndisp
                # Same-tick stragglers scheduled by the last few entries.
                while queue or cur:
                    if queue:
                        self._absorb(base, base)
                    if not cur:
                        break
                    e = heappop(cur)
                    steps += 1
                    self._dispatch_entry(e, base, base)
                base += 1
                curb = base - 1
                self._base = base
                self._curb = curb
        finally:
            self.steps += steps
            self._base = base
            self._curb = curb
