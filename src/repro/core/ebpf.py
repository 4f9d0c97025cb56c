"""eBPF map and program emulation (§5.4).

Hermes passes scheduling decisions to the kernel through eBPF maps:

- :class:`BpfArrayMap` models ``BPF_MAP_TYPE_ARRAY`` — fixed-size array of
  64-bit words.  Userspace updates go through ``update_from_user`` which
  models the ``bpf(BPF_MAP_UPDATE_ELEM)`` *system call* (counted, and its
  CPU cost chargeable to the calling worker).  Kernel-side reads
  (``lookup``) are plain memory accesses.  Word-sized reads and writes are
  atomic — the property §5.4 leans on to avoid locks.
- :class:`ReuseportSockArray` models ``BPF_MAP_TYPE_REUSEPORT_SOCKARRAY``:
  worker-ID → member-socket index, installed at program-initialization time.

To keep faith with the verifier's constraints, programs built on these maps
(see :mod:`repro.core.dispatch`) report a bounded instruction estimate per
invocation, and the map API refuses anything a real array map would reject
(out-of-range keys, wrong value width).
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["BpfArrayMap", "ReuseportSockArray", "BpfError"]

_M64 = (1 << 64) - 1


class BpfError(Exception):
    """Raised for invalid map access (the kernel would return -EINVAL)."""


class BpfArrayMap:
    """``BPF_MAP_TYPE_ARRAY`` with 64-bit values.

    Array maps are preallocated and zero-initialized; keys are indices.
    Concurrent word-sized access is atomic, so a reader sees either the old
    or the new value — never a torn mix (the paper's argument for using a
    single int-encoded bitmap instead of a locked array).
    """

    def __init__(self, max_entries: int, name: str = ""):
        if max_entries < 1:
            raise BpfError(f"max_entries must be >= 1, got {max_entries}")
        self.name = name
        self.max_entries = max_entries
        self._values: List[int] = [0] * max_entries
        # -- accounting ------------------------------------------------------
        #: Userspace update syscalls (each costs a kernel transition).
        self.user_updates = 0
        #: Kernel-side lookups (cheap map loads from the eBPF program).
        self.kernel_lookups = 0

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.max_entries:
            raise BpfError(
                f"key {key} out of range for array map of {self.max_entries}")

    def lookup(self, key: int) -> int:
        """Kernel-side ``bpf_map_lookup_elem``."""
        self._check_key(key)
        self.kernel_lookups += 1
        return self._values[key]

    def update_from_user(self, key: int, value: int) -> None:
        """Userspace ``bpf(BPF_MAP_UPDATE_ELEM, ...)`` — a system call."""
        if not 0 <= key < self.max_entries:  # once per scheduler run
            self._check_key(key)
        if not 0 <= value <= _M64:
            raise BpfError(f"value {value:#x} does not fit in 64 bits")
        self.user_updates += 1
        self._values[key] = value

    def update_from_kernel(self, key: int, value: int) -> None:
        """In-kernel update (no syscall) — used by kernel-side programs.

        Enforces the same 64-bit value width as :meth:`update_from_user`:
        an eBPF program holds the value in a 64-bit register, so an
        oversized Python int here is a harness bug, and masking it would
        let kernel- and user-side writes of the "same" value diverge.
        """
        self._check_key(key)
        if not 0 <= value <= _M64:
            raise BpfError(f"value {value:#x} does not fit in 64 bits")
        self._values[key] = value

    def read_from_user(self, key: int) -> int:
        """Userspace ``bpf(BPF_MAP_LOOKUP_ELEM, ...)`` syscall."""
        self._check_key(key)
        return self._values[key]


class ReuseportSockArray:
    """``BPF_MAP_TYPE_REUSEPORT_SOCKARRAY``: worker ID → socket index.

    The real map stores socket references; our reuseport group resolves
    member sockets by array index, so this map stores those indices.  A
    slot of ``None`` means no socket installed (a crashed worker whose fd
    was cleaned up); ``bpf_sk_select_reuseport`` on such a slot errors and
    the kernel falls back to hash selection.
    """

    def __init__(self, max_entries: int, name: str = ""):
        if max_entries < 1:
            raise BpfError(f"max_entries must be >= 1, got {max_entries}")
        self.name = name
        self.max_entries = max_entries
        self._slots: List[Optional[int]] = [None] * max_entries

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.max_entries:
            raise BpfError(
                f"key {key} out of range for sockarray of {self.max_entries}")

    def install(self, worker_id: int, socket_index: int) -> None:
        """Userspace installs the worker→socket mapping at init time."""
        self._check_key(worker_id)
        if socket_index < 0:
            raise BpfError(f"invalid socket index {socket_index}")
        self._slots[worker_id] = socket_index

    def remove(self, worker_id: int) -> None:
        """Socket closed (worker death): the kernel clears the slot."""
        self._check_key(worker_id)
        self._slots[worker_id] = None

    def select(self, worker_id: int) -> Optional[int]:
        """``bpf_sk_select_reuseport``: resolve the socket index or None."""
        self._check_key(worker_id)
        return self._slots[worker_id]

    def installed(self, worker_id: int) -> bool:
        self._check_key(worker_id)
        return self._slots[worker_id] is not None
