"""A *real* shared-memory Worker Status Table.

The simulation models the WST's concurrency semantics; this module
implements them for real, across actual OS processes, over
``multiprocessing.shared_memory`` — the slice of Hermes that pure Python
can execute natively.

CPython offers no cross-process ``atomic<int>``, so each slot is guarded
by a **seqlock** (the kernel's reader/writer pattern for exactly this
situation): the writer increments a version counter to an odd value,
writes the fields, then increments it to the next even value; a reader
snapshots the version, reads the fields, re-reads the version, and retries
if it changed or was odd.  This preserves the paper's two properties:

- writers never block (each worker owns its slot exclusively — no write
  contention by construction, §5.3.1), and
- readers never block writers, yet never observe a torn value.

Slots are padded to 64 bytes so two workers' counters never share a cache
line (false sharing would serialize the "lock-free" updates in practice).

The same layout backs :class:`ShmSelectionMap` — the stand-in for the
eBPF array map carrying the selected-worker bitmap.
"""

from __future__ import annotations

import struct
import time
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

from ..core.wst import WstSnapshot

__all__ = ["ShmWorkerStatusTable", "ShmSelectionMap", "SLOT_SIZE"]

#: One cache line per worker slot.
SLOT_SIZE = 64
#: seq(u64) | timestamp(f64) | events(i64) | conns(i64) then padding.
_SLOT_FMT = "<Qdqq"
_SLOT_USED = struct.calcsize(_SLOT_FMT)
#: Bound on seqlock read attempts before declaring livelock.  A writer
#: preempted mid-update holds the sequence odd for a whole scheduling
#: quantum, so readers back off with short sleeps (see ``_SPIN_BEFORE_
#: SLEEP``) and only fail after a generous real-time budget — a stuck odd
#: sequence beyond that means the writer died mid-update.
MAX_RETRIES = 5000
#: Spin this many times before each backoff sleep.
_SPIN_BEFORE_SLEEP = 50
_BACKOFF_SLEEP = 0.0002


class ShmWorkerStatusTable:
    """WST over real shared memory; one seqlocked slot per worker.

    Mirrors the simulation WST's interface (``touch_timestamp`` /
    ``add_events`` / ``add_conns`` / ``read_all``), so the *same*
    :class:`~repro.core.scheduler.CascadingScheduler` code runs over it.
    """

    def __init__(self, n_workers: int, clock=None,
                 name: Optional[str] = None, create: bool = True):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers
        self._clock = clock or time.monotonic
        size = SLOT_SIZE * n_workers
        if create:
            self._shm = shared_memory.SharedMemory(
                create=True, size=size, name=name)
            self._shm.buf[:size] = bytes(size)
        else:
            if name is None:
                raise ValueError("attaching requires a name")
            self._shm = shared_memory.SharedMemory(name=name)
            if self._shm.size < size:
                raise ValueError(
                    f"segment too small: {self._shm.size} < {size}")
        self._owns = create
        #: Local (per-process) operation counters.
        self.update_ops = 0
        self.read_ops = 0
        self.read_retries = 0

    @property
    def name(self) -> str:
        """The segment name other processes attach with."""
        return self._shm.name

    @classmethod
    def attach(cls, name: str, n_workers: int,
               clock=None) -> "ShmWorkerStatusTable":
        """Attach to an existing table from another process."""
        return cls(n_workers, clock=clock, name=name, create=False)

    # -- slot access --------------------------------------------------------
    def _offset(self, worker_id: int) -> int:
        if not 0 <= worker_id < self.n_workers:
            raise IndexError(f"worker id {worker_id} out of range")
        return worker_id * SLOT_SIZE

    def _read_slot_raw(self, offset: int) -> Tuple[int, float, int, int]:
        return struct.unpack_from(_SLOT_FMT, self._shm.buf, offset)

    def _write_slot(self, worker_id: int, timestamp: float,
                    events: int, conns: int) -> None:
        """Seqlock write: odd seq while the fields are in flux."""
        offset = self._offset(worker_id)
        seq = struct.unpack_from("<Q", self._shm.buf, offset)[0]
        struct.pack_into("<Q", self._shm.buf, offset, seq + 1)  # odd
        struct.pack_into("<dqq", self._shm.buf, offset + 8,
                         timestamp, events, conns)
        struct.pack_into("<Q", self._shm.buf, offset, seq + 2)  # even
        self.update_ops += 1

    def read_slot(self, worker_id: int) -> Tuple[float, int, int]:
        """Seqlock read with retry + backoff: never returns a torn slot."""
        import time as _time
        offset = self._offset(worker_id)
        for attempt in range(MAX_RETRIES):
            seq0, timestamp, events, conns = self._read_slot_raw(offset)
            if seq0 % 2 == 0:
                seq1 = struct.unpack_from("<Q", self._shm.buf, offset)[0]
                if seq0 == seq1:
                    return timestamp, events, conns
            self.read_retries += 1
            if attempt % _SPIN_BEFORE_SLEEP == _SPIN_BEFORE_SLEEP - 1:
                # The writer may be preempted mid-update; yield the CPU so
                # it can finish instead of spinning against it.
                _time.sleep(_BACKOFF_SLEEP)
        raise RuntimeError(
            f"seqlock livelock on worker {worker_id} slot — "
            f"writer died mid-update?")

    # -- the simulation-WST interface ----------------------------------------
    def touch_timestamp(self, worker_id: int) -> None:
        _, events, conns = self.read_slot(worker_id)
        self._write_slot(worker_id, self._clock(), events, conns)

    def add_events(self, worker_id: int, delta: int) -> None:
        timestamp, events, conns = self.read_slot(worker_id)
        self._write_slot(worker_id, timestamp,
                         max(0, events + delta), conns)

    def add_conns(self, worker_id: int, delta: int) -> None:
        timestamp, events, conns = self.read_slot(worker_id)
        self._write_slot(worker_id, timestamp, events,
                         max(0, conns + delta))

    def set_slot(self, worker_id: int, timestamp: float,
                 events: int, conns: int) -> None:
        """Publish a full status atomically (one seqlock section)."""
        self._write_slot(worker_id, timestamp, events, conns)

    def read_all(self) -> WstSnapshot:
        self.read_ops += 1
        times: List[float] = []
        events: List[int] = []
        conns: List[int] = []
        for worker_id in range(self.n_workers):
            t, e, c = self.read_slot(worker_id)
            times.append(t)
            events.append(e)
            conns.append(c)
        return WstSnapshot(times=tuple(times), events=tuple(events),
                           conns=tuple(conns))

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only)."""
        if self._owns:
            self._shm.unlink()

    def __enter__(self) -> "ShmWorkerStatusTable":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self._owns:
            try:
                self.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class ShmSelectionMap:
    """The eBPF selection map's stand-in: 64-bit words in shared memory.

    Interface-compatible with :class:`~repro.core.ebpf.BpfArrayMap` for
    the operations the scheduler and dispatch program use.

    Unlike WST slots, a selection word has *many* writers (every worker's
    scheduler), so a seqlock would corrupt (two writers racing the
    sequence leave it odd).  The paper's answer is an ``atomic<int>``
    store; the closest Python equivalent is a single aligned 8-byte slice
    assignment — one ``memcpy`` of a word, which is effectively atomic on
    the 64-bit platforms this runs on (each slot sits at a 64-byte
    boundary).  A torn word would anyway only mis-steer a few connections
    for one update interval, the same argument as §5.3.1.
    """

    def __init__(self, max_entries: int = 1, name: Optional[str] = None,
                 create: bool = True):
        if max_entries < 1:
            raise ValueError("need at least one entry")
        self.max_entries = max_entries
        size = SLOT_SIZE * max_entries
        if create:
            self._shm = shared_memory.SharedMemory(
                create=True, size=size, name=name)
            self._shm.buf[:size] = bytes(size)
        else:
            if name is None:
                raise ValueError("attaching requires a name")
            self._shm = shared_memory.SharedMemory(name=name)
        self._owns = create
        self.user_updates = 0
        self.kernel_lookups = 0

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def attach(cls, name: str, max_entries: int = 1) -> "ShmSelectionMap":
        return cls(max_entries, name=name, create=False)

    def _offset(self, key: int) -> int:
        if not 0 <= key < self.max_entries:
            raise IndexError(f"key {key} out of range")
        return key * SLOT_SIZE

    def update_from_user(self, key: int, value: int) -> None:
        offset = self._offset(key)
        # One aligned 8-byte store — the atomic<int> emulation.
        self._shm.buf[offset:offset + 8] = struct.pack(
            "<Q", value & (2 ** 64 - 1))
        self.user_updates += 1

    def _read(self, key: int) -> int:
        offset = self._offset(key)
        return struct.unpack_from("<Q", self._shm.buf, offset)[0]

    def lookup(self, key: int) -> int:
        self.kernel_lookups += 1
        return self._read(key)

    def read_from_user(self, key: int) -> int:
        return self._read(key)

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        if self._owns:
            self._shm.unlink()
