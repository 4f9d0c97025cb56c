"""Simulated epoll instances.

One :class:`Epoll` per worker.  The model follows the kernel closely enough
to reproduce every scheduling pathology the paper measures:

- ``ctl_add`` registers a wake entry on the fd's wait queue.  For shared
  listening sockets the entry may carry the exclusive flag
  (``EPOLLEXCLUSIVE``); entries are head-inserted by the wait queue, giving
  the LIFO preference of epoll exclusive.
- The wake callback (our ``ep_poll_callback``) always marks the fd ready in
  this instance's ready set, and reports a *successful wakeup* only when the
  owner is actually blocked in ``wait()``.  An exclusive wake therefore
  skips busy workers and keeps walking — precisely Fig. A2.
- ``wait()`` is level-triggered by default: delivered fds are re-polled on
  the next call and stay ready while data remains.  Edge-triggered fds are
  delivered once per wake.

``wait()`` is a generator — workers drive it with ``yield from`` inside
their event-loop process.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..sim.engine import Environment, Event, TimedWait
from ..sim.monitor import Samples
from .socket import EPOLLIN
from .waitqueue import WaitEntry

__all__ = ["Epoll", "EpollEvent", "MAX_EVENTS"]

#: Default epoll_wait() batch size (event_list capacity in Fig. 9).
MAX_EVENTS = 64


class EpollEvent(NamedTuple):
    """One event returned from ``wait()``: the fd object and its mask."""

    fd: object
    mask: int


class _Interest(NamedTuple):
    entry: WaitEntry
    edge_triggered: bool


class Epoll:
    """An epoll instance bound to one worker."""

    def __init__(self, env: Environment, name: str = "",
                 collect_stats: bool = False, worker_id: Optional[int] = None,
                 tracer=None):
        self.env = env
        self.name = name
        #: Owning worker id, for trace attribution (None = unknown).
        self.worker_id = worker_id
        #: Optional :class:`repro.obs.Tracer` (None = untraced).
        self.tracer = tracer
        self._interest: Dict[object, _Interest] = {}
        #: fd -> accumulated ready mask (insertion ordered, like the kernel's
        #: ready list).
        self._ready: Dict[object, int] = {}
        self._sleeper: Optional[Event] = None
        self._timed_wait = TimedWait()
        # -- statistics (Figs. 4 & 5) ---------------------------------------
        #: Record the Fig. 4/5 distributions: this epoll's events per wait
        #: and blocking times, and its worker's event processing times.
        #: Off unless a caller that reads them turns it on.
        self.collect_stats = collect_stats
        self.events_per_wait = Samples("events_per_wait")
        self.blocking_times = Samples("blocking_time")
        self.total_wakeups = 0
        self.total_waits = 0

    # -- registration ---------------------------------------------------
    def ctl_add(self, fd: object, exclusive: bool = False,
                edge_triggered: bool = False) -> None:
        """EPOLL_CTL_ADD: watch ``fd``; optionally EPOLLEXCLUSIVE / EPOLLET."""
        if fd in self._interest:
            raise ValueError(f"fd {fd!r} already in interest list (EEXIST)")
        entry = WaitEntry(self._poll_callback, exclusive=exclusive, owner=fd)
        self._interest[fd] = _Interest(entry, edge_triggered)
        fd.wait_queue.add(entry)
        # Level-triggered semantics: if the fd is already ready at add time
        # it must be reported (the kernel checks revents at insertion).
        if not edge_triggered:
            mask = fd.poll()
            if mask:
                self._ready[fd] = self._ready.get(fd, 0) | mask

    def ctl_del(self, fd: object) -> None:
        """EPOLL_CTL_DEL: stop watching ``fd``."""
        interest = self._interest.pop(fd, None)
        if interest is None:
            raise ValueError(f"fd {fd!r} not in interest list (ENOENT)")
        if interest.entry.queue is not None:
            fd.wait_queue.remove(interest.entry)
        self._ready.pop(fd, None)

    def watches(self, fd: object) -> bool:
        return fd in self._interest

    def watched_fds(self) -> List[object]:
        """Snapshot of the interest list (restart cleanup, diagnostics)."""
        return list(self._interest)

    @property
    def interest_count(self) -> int:
        return len(self._interest)

    @property
    def ready_count(self) -> int:
        """Pending-ready fds not yet harvested (diagnostics; no counters)."""
        return len(self._ready)

    @property
    def is_sleeping(self) -> bool:
        """True while the owner is blocked inside ``wait()``."""
        return self._sleeper is not None and not self._sleeper.triggered

    # -- kernel-side wakeup path ------------------------------------------
    def _poll_callback(self, entry: WaitEntry, key: int) -> bool:
        """Our ``ep_poll_callback``: mark ready, wake the sleeper if any.

        Returns True only when a sleeping owner was actually woken, which
        is what lets an exclusive wait-queue traversal skip busy workers.
        """
        fd = entry.owner
        mask = key if key else EPOLLIN
        self._ready[fd] = self._ready.get(fd, 0) | mask
        woke = False
        if self._sleeper is not None and not self._sleeper.triggered:
            self.total_wakeups += 1
            self._sleeper.succeed()
            woke = True
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("epoll.wakeup", "kernel", worker=self.worker_id,
                           woke=woke, mask=mask)
        return woke

    # -- userspace-side wait path ------------------------------------------
    def _harvest(self, max_events: int) -> List[EpollEvent]:
        """Collect ready events, re-arming level-triggered fds still ready."""
        if not self._ready:
            return []  # nothing pending: skip the list/dict churn entirely
        out: List[EpollEvent] = []
        rearmed: Dict[object, int] = {}
        pending = list(self._ready.items())
        self._ready.clear()
        for index, (fd, stored_mask) in enumerate(pending):
            if len(out) >= max_events:
                # Batch full: keep the remainder ready for the next call.
                for rest_fd, rest_mask in pending[index:]:
                    rearmed[rest_fd] = rearmed.get(rest_fd, 0) | rest_mask
                break
            interest = self._interest.get(fd)
            if interest is None:
                continue  # deleted since it became ready
            if interest.edge_triggered:
                # ET: deliver the stored edge once, no re-poll, no re-arm.
                out.append(EpollEvent(fd, stored_mask))
                continue
            mask = fd.poll()
            if not mask:
                continue  # spurious (race consumed the data): LT drops it
            out.append(EpollEvent(fd, mask))
            # LT re-arm: keep it on the ready list; the next wait() re-polls
            # and drops it if userspace consumed everything by then.
            rearmed[fd] = mask
        self._ready.update(rearmed)
        return out

    def wait(self, timeout: float, max_events: int = MAX_EVENTS):
        """``epoll_wait(2)``; use as ``events = yield from epoll.wait(t)``.

        Returns immediately with available events; otherwise blocks until a
        wakeup or for ``timeout`` (returning ``[]`` on timeout, like the
        syscall returning 0).
        """
        self.total_waits += 1
        tracer = self.tracer
        events = self._harvest(max_events)
        if events or timeout == 0:
            if self.collect_stats:
                self.events_per_wait.add(len(events))
                self.blocking_times.add(0.0)
            if tracer is not None:
                tracer.instant("epoll.dispatch", "worker",
                               worker=self.worker_id, n_events=len(events),
                               blocked=0.0)
            return events
        env = self.env
        entered = env._now
        if tracer is not None:
            tracer.begin("epoll.wait", "worker", worker=self.worker_id)
        # Every blocking wait: without it splice_case3 and fleet16 take
        # 1.22x and 1.27x the CPU time (fast-path ledger).
        timed_wait = self._timed_wait
        timed_wait.event = self._sleeper = env.event()
        timed_wait.delay = timeout
        yield timed_wait
        timed_wait.expired()
        # The pinned event order resumes the worker one (now, NORMAL, eid)
        # hop after the wakeup or timeout, as ``sleeper | timeout`` would.
        # A wakeup inside the hop still counts and pops as a no-op, since
        # the sleeper stays armed until here.
        yield 0.0
        self._sleeper = None
        events = self._harvest(max_events)
        if self.collect_stats:
            self.events_per_wait.add(len(events))
            self.blocking_times.add(env._now - entered)
        if tracer is not None:
            tracer.end("epoll.wait", "worker", worker=self.worker_id)
            tracer.instant("epoll.dispatch", "worker",
                           worker=self.worker_id, n_events=len(events),
                           blocked=env._now - entered)
        return events

    def close(self) -> None:
        """Drop all interest entries (worker death)."""
        for fd in list(self._interest):
            self.ctl_del(fd)
        self._sleeper = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Epoll {self.name} interest={len(self._interest)} "
                f"ready={len(self._ready)}>")
