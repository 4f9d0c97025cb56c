"""Socket wait queues with Linux wakeup semantics.

This module reproduces the behaviour of ``__wake_up_common`` (Fig. A2 of the
paper), which is the root cause of the load imbalance Hermes addresses:

- Waiters are added to the *head* of the queue (``add_wait_queue``
  inserts at the head), so the most recently registered waiter is tried
  first — the model's LIFO epoll exclusive.
  A host probe disagrees for ``EPOLLEXCLUSIVE``: ``ep_ptable_queue_proc``
  adds those entries with ``add_wait_queue_exclusive`` (tail insertion),
  and the host wakes the *first*-registered idle waiter.  The model keeps
  head insertion until that comparison with the host is settled.
- On wakeup, the queue is walked from the head.  Each entry's wake function
  runs; if it reports a successful wakeup *and* the entry carries
  ``WQ_FLAG_EXCLUSIVE``, traversal stops.  Non-exclusive entries are all
  woken — the thundering herd.
- The (never-merged) epoll-roundrobin patch is also modelled: after a
  successful exclusive wakeup the entry is rotated to the tail.

Wake functions return True when they actually woke a sleeping waiter and
False when the waiter was already running (in which case traversal continues
to the next entry, exactly as the kernel's ``curr->func`` contract).
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, List, Optional

__all__ = ["WaitPolicy", "WaitEntry", "WaitQueue"]


class WaitPolicy(Enum):
    """How an entry behaves after it is woken."""

    #: Wake every entry regardless of success — pre-4.5 epoll herd.
    WAKE_ALL = "all"
    #: Stop at the first successful wakeup; entry stays at its position
    #: (head-inserted ⇒ LIFO preference) — EPOLLEXCLUSIVE.
    EXCLUSIVE = "exclusive"
    #: Like EXCLUSIVE but rotate the woken entry to the tail — the
    #: epoll-roundrobin proposal.
    EXCLUSIVE_ROUNDROBIN = "rr"


class WaitEntry:
    """One waiter registered on a :class:`WaitQueue`.

    ``func(entry, key) -> bool`` is the wake callback; the ``exclusive``
    flag corresponds to WQ_FLAG_EXCLUSIVE.  ``owner`` is opaque context
    (typically the epoll instance holding this entry).
    """

    __slots__ = ("func", "exclusive", "owner", "queue")

    def __init__(self, func: Callable[["WaitEntry", Any], bool],
                 exclusive: bool = False, owner: Any = None):
        self.func = func
        self.exclusive = exclusive
        self.owner = owner
        self.queue: Optional["WaitQueue"] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "exclusive" if self.exclusive else "shared"
        return f"<WaitEntry {flag} owner={self.owner!r}>"


class WaitQueue:
    """An ordered list of waiters with kernel wakeup semantics.

    ``insertion="head"`` is epoll's behaviour (LIFO preference);
    ``insertion="tail"`` models io_uring's FIFO wakeup order (§8 of the
    paper notes io_uring "uses a default interrupt mode with a fixed
    wakeup order (similar to epoll, but in FIFO order)").
    """

    def __init__(self, rotate_on_wake: bool = False,
                 insertion: str = "head"):
        if insertion not in ("head", "tail"):
            raise ValueError(f"insertion must be head or tail, got "
                             f"{insertion!r}")
        #: Head of the list is index 0; wakeups traverse in index order.
        self._entries: List[WaitEntry] = []
        #: Round-robin variant: move woken entry to the tail.
        self.rotate_on_wake = rotate_on_wake
        #: Where ``add`` places new entries.
        self.insertion = insertion
        #: Wakeup statistics, indexable by entry owner for experiments.
        self.wake_calls = 0
        #: Optional :class:`repro.obs.Tracer`; set by whoever wires the
        #: socket (None = untraced, zero overhead).
        self.tracer = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[WaitEntry]:
        """Snapshot of entries in traversal (head-first) order."""
        return list(self._entries)

    def add(self, entry: WaitEntry) -> None:
        """Register a waiter at the configured insertion point.

        Head insertion (epoll) is what produces the LIFO wakeup preference
        of epoll exclusive: the last worker to call ``epoll_ctl`` is tried
        first.  Tail insertion (io_uring) yields FIFO order — a *fixed*
        order all the same, so still load-unaware.
        """
        if entry.queue is not None:
            raise ValueError("entry is already on a wait queue")
        entry.queue = self
        if self.insertion == "head":
            self._entries.insert(0, entry)
        else:
            self._entries.append(entry)

    def add_tail(self, entry: WaitEntry) -> None:
        """Register a waiter at the tail (used by some kernel paths)."""
        if entry.queue is not None:
            raise ValueError("entry is already on a wait queue")
        entry.queue = self
        self._entries.append(entry)

    def remove(self, entry: WaitEntry) -> None:
        """Unregister a waiter (``epoll_ctl(EPOLL_CTL_DEL)`` path)."""
        self._entries.remove(entry)
        entry.queue = None

    def wake(self, key: Any = None, nr_exclusive: int = 1) -> List[WaitEntry]:
        """Walk the queue and wake waiters; returns entries that woke.

        Faithful to ``__wake_up_common``: every entry's wake function runs
        in traversal order; when a function returns True and the entry is
        exclusive, ``nr_exclusive`` is decremented and traversal stops when
        it hits zero.  Entries whose function returns False (owner already
        awake) do not consume the exclusive budget — the kernel keeps
        walking to find a sleeping waiter.
        """
        self.wake_calls += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("wait.wake", "kernel", waiters=len(self._entries),
                         nr_exclusive=nr_exclusive)
        woken: List[WaitEntry] = []
        walked = 0
        remaining = nr_exclusive
        rotated: List[WaitEntry] = []
        for entry in list(self._entries):
            if entry.queue is not self:
                continue  # removed by an earlier callback
            walked += 1
            success = entry.func(entry, key)
            if success:
                woken.append(entry)
                if entry.exclusive:
                    if self.rotate_on_wake:
                        rotated.append(entry)
                    remaining -= 1
                    if remaining <= 0:
                        break
        for entry in rotated:
            if entry.queue is self:
                self._entries.remove(entry)
                self._entries.append(entry)
        if tracer is not None:
            tracer.end("wait.wake", "kernel", walked=walked,
                       woken=len(woken))
        return woken
