"""The Worker Status Table (WST) — §5.3.1.

An inter-process table in shared memory.  Rows are the three scheduling
metrics (event-loop entry timestamp, pending event count, accumulated
connection count); columns are workers.  Workers update only their own
column (no write contention); the scheduler embedded in any worker reads the
whole table without read locks.

Concurrency model reproduced here:

- *Per-variable atomicity* (``atomic<int>`` in the paper): a read of one
  cell never observes a torn value.  The default mode.
- *Torn mode* (``atomic=False``): reads racing a write may observe a mix of
  the old and new 32-bit halves with a configurable probability.  Used by
  tests and the ablation bench to demonstrate why the paper stores each
  metric in an atomic cell.
- *Staleness* is inherent in both modes — the table holds whatever each
  worker last published, which is the closed loop's actual feedback delay.

Update operations are counted for the Table 5 overhead model ("Counter"
column).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..sim.rng import Stream

__all__ = ["WorkerStatusTable", "WstSnapshot", "WstView"]

_LO32 = 0xFFFFFFFF


@dataclass(frozen=True)
class WstSnapshot:
    """One scheduler read of the whole table."""

    times: Tuple[float, ...]
    events: Tuple[int, ...]
    conns: Tuple[int, ...]

    @property
    def n_workers(self) -> int:
        return len(self.times)


class WstView:
    """A zero-copy read of the table: the scheduler's hot-path snapshot.

    Exposes the same ``times``/``events``/``conns`` sequence attributes as
    :class:`WstSnapshot`, but referencing the table's *live* columns instead
    of copied tuples.  Valid only for a synchronous read-then-filter (the
    cascade runs to completion before any worker can publish again — the
    simulated single-threaded event loop guarantees it); callers must not
    retain a view across updates nor mutate through it.  One view per table
    is cached and reused, so the steady-state read path allocates nothing.
    """

    __slots__ = ("times", "events", "conns")

    def __init__(self, times, events, conns):
        self.times = times
        self.events = events
        self.conns = conns

    @property
    def n_workers(self) -> int:
        return len(self.times)


class WorkerStatusTable:
    """Shared-memory worker status, one column per worker."""

    def __init__(self, n_workers: int, clock: Callable[[], float],
                 atomic: bool = True, torn_read_prob: float = 0.0,
                 rng: Optional[Stream] = None):
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        if torn_read_prob and rng is None and not atomic:
            raise ValueError("torn mode needs an rng stream")
        self.n_workers = n_workers
        self._clock = clock
        self.atomic = atomic
        self.torn_read_prob = torn_read_prob
        self._rng = rng
        now = clock()
        self._times: List[float] = [now] * n_workers
        self._events: List[int] = [0] * n_workers
        self._conns: List[int] = [0] * n_workers
        # Previous value per cell, for torn-read synthesis.
        self._prev_events: List[int] = [0] * n_workers
        self._prev_conns: List[int] = [0] * n_workers
        # Frozen-timestamp fault (``repro.faults``): columns whose loop-entry
        # timestamp stopped advancing (stuck time source / dead publisher).
        self._frozen: List[bool] = [False] * n_workers
        # -- accounting ------------------------------------------------------
        #: Total shared-memory update operations (Table 5 "Counter").
        self.update_ops = 0
        #: Total full-table reads by schedulers.
        self.read_ops = 0
        #: Torn values actually served (diagnostics).
        self.torn_reads_served = 0
        # The one reusable zero-copy view (atomic mode only; see read_view).
        self._view = WstView(self._times, self._events, self._conns)

    def _check_worker(self, worker_id: int) -> None:
        if not 0 <= worker_id < self.n_workers:
            raise IndexError(
                f"worker id {worker_id} out of range [0, {self.n_workers})")

    # -- worker-side updates (Fig. 9 instrumentation points) ---------------
    def touch_timestamp(self, worker_id: int) -> None:
        """``shm_avail_update(current_time)`` at event-loop entry."""
        # The range test is inline on the three per-iteration updates; the
        # helper only raises.
        if not 0 <= worker_id < self.n_workers:
            self._check_worker(worker_id)
        # A frozen column still *attempts* the update (the worker pays the
        # shared-memory write) but the value never lands — the scheduler's
        # staleness filter is what must catch the stuck publisher.
        if not self._frozen[worker_id]:
            self._times[worker_id] = self._clock()
        self.update_ops += 1

    def freeze(self, worker_id: int) -> None:
        """Stop a worker's timestamp from advancing (fault injection)."""
        self._check_worker(worker_id)
        self._frozen[worker_id] = True

    def unfreeze(self, worker_id: int) -> None:
        """Clear a frozen timestamp; the next loop entry publishes again."""
        self._check_worker(worker_id)
        self._frozen[worker_id] = False

    def add_events(self, worker_id: int, delta: int) -> None:
        """``shm_busy_count(±n)``: pending-event counter."""
        if not 0 <= worker_id < self.n_workers:
            self._check_worker(worker_id)
        self._prev_events[worker_id] = self._events[worker_id]
        self._events[worker_id] = max(0, self._events[worker_id] + delta)
        self.update_ops += 1

    def add_conns(self, worker_id: int, delta: int) -> None:
        """``shm_conn_count(±1)``: accumulated-connection counter."""
        if not 0 <= worker_id < self.n_workers:
            self._check_worker(worker_id)
        self._prev_conns[worker_id] = self._conns[worker_id]
        self._conns[worker_id] = max(0, self._conns[worker_id] + delta)
        self.update_ops += 1

    # -- scheduler-side reads ------------------------------------------------
    def _maybe_torn(self, current: int, previous: int) -> int:
        """In torn mode, occasionally mix halves of the old and new values."""
        if self.atomic or self.torn_read_prob <= 0 or self._rng is None:
            return current
        if current != previous and self._rng.random() < self.torn_read_prob:
            self.torn_reads_served += 1
            return (previous & ~_LO32) | (current & _LO32) \
                if self._rng.random() < 0.5 \
                else (current & ~_LO32) | (previous & _LO32)
        return current

    def read_all(self) -> WstSnapshot:
        """Read every worker's column (the scheduler's lock-free scan)."""
        self.read_ops += 1
        events = tuple(
            self._maybe_torn(self._events[i], self._prev_events[i])
            for i in range(self.n_workers))
        conns = tuple(
            self._maybe_torn(self._conns[i], self._prev_conns[i])
            for i in range(self.n_workers))
        return WstSnapshot(times=tuple(self._times), events=events,
                           conns=conns)

    def read_view(self):
        """Read the table without copying (the scheduler's fast path).

        In atomic mode every cell read is already consistent, so the cached
        :class:`WstView` over the live columns is exactly equivalent to a
        :meth:`read_all` snapshot for a synchronous read-then-filter — and
        allocates nothing.  Torn mode must synthesize per-cell mixes, so it
        falls back to the copying snapshot (read_ops is counted once either
        way).
        """
        if self.atomic or self.torn_read_prob <= 0 or self._rng is None:
            self.read_ops += 1
            return self._view
        return self.read_all()

    def read_worker(self, worker_id: int) -> Tuple[float, int, int]:
        """Read one column (diagnostics; not on the scheduling path)."""
        self._check_worker(worker_id)
        return (self._times[worker_id], self._events[worker_id],
                self._conns[worker_id])

    # -- direct accessors for tests/metrics ---------------------------------
    @property
    def times(self) -> Tuple[float, ...]:
        return tuple(self._times)

    @property
    def events(self) -> Tuple[int, ...]:
        return tuple(self._events)

    @property
    def conns(self) -> Tuple[int, ...]:
        return tuple(self._conns)
