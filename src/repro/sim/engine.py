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
- :class:`AnyOf` — a condition event that fires with its first sub-event
  (``event | other``).
- :class:`TimedWait` — wait on an event with a deadline (the allocation-free
  form of ``event | env.timeout(delay)``).

Performance notes (the fast path)
---------------------------------
The engine's per-event cost is the unit economics of every sweep in this
repo.  It keeps only the shortcuts that paired CPU-time runs show to pay
(docs/PERFORMANCE.md, "Fast-path ledger"):

- A process may ``yield delay`` (a plain float/int) instead of
  ``yield env.timeout(delay)``: the engine schedules the resume directly
  on the heap with the same (time, priority, insertion-order) key the
  equivalent ``Timeout`` would have used, but allocates no event object
  and runs no callback list.  The yield expression evaluates to ``None``,
  exactly like a value-less timeout.
- Scheduling is one flat sequence (eid bump + ``heappush``), which
  ``Event.succeed``/``fail``/``Timeout.__init__`` perform inline.
- ``schedule_callback`` allocates no per-event closure: the callable is
  carried on a slot of the event and invoked by one shared function.
- A :class:`TimedWait` arms its deadline as the process's own direct
  timer, so a blocking ``epoll_wait`` builds no Timeout and no AnyOf.

The engine keeps no free list: once dispatched, an event is referenced
only by whoever still holds it, and is freed by refcount when they let go.
``Environment.run`` is the body of :meth:`Environment.step` with the queue
and step counter held in locals, one loop for both ``run()`` and
``run(until)``.

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

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "TimedWait",
    "SimulationError",
]

#: Priority for "urgent" events (fire before normal events at the same time).
URGENT = 0
#: Priority for ordinary events.
NORMAL = 1


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

    # -- composition -----------------------------------------------------
    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

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
        if not delay >= 0:  # NaN too: it would break the heap order
            raise SimulationError(f"negative timeout delay: {delay}")
        # Flat init: every slot set exactly once, scheduling inlined (no
        # super().__init__ that first writes PENDING just to overwrite it).
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
        if not delay >= 0:
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

    __slots__ = ("generator", "_target", "name", "_resumer", "_sched_eid")

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
        # hands its deadline timer's queue entry to the condition the AnyOf
        # form would have left behind; the entry keeps its key, so the heap
        # stays valid (interrupt-only, so a linear scan is fine).
        target = self._target
        if target.__class__ is TimedWait:
            deadline = target._abandon(self)
            timer_eid = self._sched_eid
            queue = env._queue
            for index, entry in enumerate(queue):
                if entry[2] == timer_eid:
                    queue[index] = (entry[0], entry[1], timer_eid, deadline)
                    break
        elif target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resumer)
            except ValueError:
                pass
        self._target = None
        # A direct ``yield delay`` timer has no event to detach from:
        # invalidating _sched_eid turns its heap entry stale, and the
        # dispatch loop discards stale Process entries on pop.
        self._sched_eid = -1

    # -- scheduling core ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:
            # A stale wakeup (e.g. an interrupt racing process completion
            # at the same timestamp) must not touch a finished generator.
            return
        # Whatever armed timer is left (a timed wait's deadline) is over:
        # the dispatch loop's _sched_eid guard now skips its entry.
        self._sched_eid = -1
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
            # but no event object, no callback list.
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
                if not delay >= 0:
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
        # A finished process must be freed by refcount, not by the cyclic
        # GC: drop the bound method that refers back to it and, on a
        # failure, the traceback entry of the engine frame that caught the
        # exception (its locals hold this process).  The generator's own
        # frames stay on the traceback.
        self._resumer = None
        if not ok and value.__traceback__ is not None:
            value.__traceback__ = value.__traceback__.tb_next
        self._ok = ok
        self._value = value
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now, NORMAL, eid, self))
        self._sched_eid = eid
        self._scheduled = True


class _Condition(Event):
    """Base for composition events: a subclass's ``_satisfied(done,
    total)`` decides when enough sub-events have fired."""

    __slots__ = ("events", "_done", "_checker")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("all condition events must share an environment")
        #: Sub-events seen done (processed + ok) so far — incremented by
        #: ``_check`` instead of recounting the whole list per trigger.
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        # The bound checker refers back to this condition; resolving it
        # drops the slot, so a resolved condition is freed by refcount.
        checker = self._checker = self._check
        for event in self.events:
            if event.callbacks is None or event._processed:
                checker(event)
            else:
                event.callbacks.append(checker)

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self._checker = None
            self.fail(event._value)
            return
        done = self._done + 1
        self._done = done
        if self._satisfied(done, len(self.events)):
            self._checker = None
            self.succeed(self._collect())

    def _collect(self) -> dict:
        """Values of sub-events that have fired, in declaration order."""
        return {ev: ev._value for ev in self.events if ev._processed and ev._ok}


class AnyOf(_Condition):
    """Fires when any sub-event has fired."""

    __slots__ = ()

    def _satisfied(self, done: int, total: int) -> bool:
        return done >= 1


class Environment:
    """The simulation environment: virtual clock and event queue.

    The queue is a binary heap keyed on ``(when, priority, eid)``; that
    key is the engine's whole ordering contract.
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_process", "steps")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Events dispatched so far (the engine-throughput denominator).
        self.steps = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling ----------------------------------------------------------
    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run a plain callable after ``delay`` (no process needed)."""
        return _Callback(self, delay, fn)

    def _stage_timer(self, process: "Process", when: float) -> int:
        """Schedule a direct ``yield delay`` resume for ``process``.

        Returns the eid the caller must record in ``_sched_eid``.
        """
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (when, NORMAL, eid, process))
        return eid

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

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
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        for callback in callbacks:
            callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced exactly to it even if
        the queue drains earlier, so post-run measurements see a consistent
        horizon.
        """
        if until is None:
            limit = float("inf")
        else:
            limit = float(until)
            # Written so that NaN fails it too.
            if not limit >= self._now:
                raise SimulationError(
                    f"cannot run backwards: now={self._now}, until={limit}")
        # The body of step(), with the queue and step count held in locals.
        queue = self._queue
        steps = 0
        try:
            while queue and queue[0][0] <= limit:
                when, _prio, eid, event = heappop(queue)
                self._now = when
                steps += 1
                if event.__class__ is Process:
                    if event._sched_eid != eid:
                        continue  # stale direct-timer entry
                    if event._value is _PENDING:
                        event._resume(_TICK)  # direct timer fired
                        continue
                    # else: the completion entry — dispatch normally.
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                for callback in callbacks:
                    callback(event)
            if until is not None:
                self._now = limit
        finally:
            self.steps += steps
