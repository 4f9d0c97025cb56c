"""Differential oracles: obviously-correct references for every fast path.

Hermes's correctness hinges on exact kernel semantics — Algorithm 2 must
agree with ``reciprocal_scale``/``popcount64`` bit for bit, and the
userspace cascade must select exactly the set the paper's Algorithm 1
describes.  The production implementations are deliberately *clever*
(SWAR reductions, branchless selects, identity-preserving filter fast
paths); each one gets a reference here that is deliberately *dumb*:

- :func:`ref_popcount64` — ``bin(v).count("1")``;
- :func:`ref_find_nth_set_bit` — a brute-force bit walk;
- :func:`ref_reciprocal_scale` — plain modulo/floor-division arithmetic;
- :func:`ref_jhash_words` / :func:`ref_jhash_4tuple` — an independent
  transcription of the kernel's ``jhash2`` using ``% 2**32`` arithmetic;
- :func:`ref_cascade` — the cascade re-derived from the paper's prose,
  one filter at a time, with none of the scheduler's hoisted state;
- :func:`ref_prequal_select` — the Prequal hot/cold-lane pick re-derived
  by naive full re-scan of a pool snapshot.

:func:`checked` fuses a fast path with its reference (raising
:class:`OracleMismatch` on any divergence), and :func:`live_oracles` is
the ``--check`` switch: a context manager that patches the checked
versions into the kernel dispatch program and the cascading scheduler of
a *live* run.  The fast value is always the one returned, so a run under
live oracles is byte-identical to an unchecked run — or it raises.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence

__all__ = [
    "OracleMismatch",
    "OracleStats",
    "ref_popcount64",
    "ref_find_nth_set_bit",
    "ref_reciprocal_scale",
    "ref_jhash_words",
    "ref_jhash_4tuple",
    "ref_cascade",
    "ref_prequal_select",
    "checked",
    "live_oracles",
]

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1


class OracleMismatch(AssertionError):
    """A fast path disagreed with its reference implementation."""


# ---------------------------------------------------------------------------
# Reference implementations.
# ---------------------------------------------------------------------------

def ref_popcount64(value: int) -> int:
    """Hamming weight the obvious way."""
    return bin(value & _M64).count("1")


def ref_find_nth_set_bit(value: int, rank: int) -> int:
    """Walk the bits LSB-first, counting set ones, until rank runs out."""
    v = value & _M64
    if rank < 0:
        raise ValueError(f"rank must be >= 0, got {rank}")
    seen = 0
    for position in range(64):
        if v & (1 << position):
            if seen == rank:
                return position
            seen += 1
    raise ValueError(
        f"bitmap {value:#x} has {seen} set bits; no bit of rank {rank}")


def ref_reciprocal_scale(value: int, ep_ro: int) -> int:
    """``(value * range) >> 32`` restated as modulo + floor division."""
    if ep_ro <= 0:
        raise ValueError(
            f"reciprocal_scale range must be positive, got {ep_ro}")
    return ((value % (1 << 32)) * ep_ro) // (1 << 32)


def _rol32(value: int, bits: int) -> int:
    value %= 1 << 32
    return ((value * (1 << bits)) % (1 << 32)) + (value // (1 << (32 - bits)))


def ref_jhash_words(words: Sequence[int], initval: int = 0) -> int:
    """Jenkins lookup3 over 32-bit words, transcribed independently.

    Same algorithm as :func:`repro.kernel.hash.jhash_words` (it must be —
    that is the point), but written from the lookup3 paper's description
    with ``%``-based arithmetic and a table-driven mix so a transcription
    slip in either copy makes the two disagree.
    """
    length = len(words)
    a = b = c = (0xDEADBEEF + 4 * length + initval) % (1 << 32)

    def mix(a: int, b: int, c: int):
        for shift in (4, 6, 8, 16, 19, 4):
            a = (a - c) % (1 << 32)
            a = a ^ _rol32(c, shift)
            c = (c + b) % (1 << 32)
            a, b, c = b, c, a
        return a, b, c

    def final(a: int, b: int, c: int) -> int:
        for x, y, shift in ((2, 1, 14), (0, 2, 11), (1, 0, 25), (2, 1, 16),
                            (0, 2, 4), (1, 0, 14), (2, 1, 24)):
            regs = [a, b, c]
            regs[x] = (regs[x] ^ regs[y]) % (1 << 32)
            regs[x] = (regs[x] - _rol32(regs[y], shift)) % (1 << 32)
            a, b, c = regs
        return c

    index = 0
    while length > 3:
        a = (a + words[index]) % (1 << 32)
        b = (b + words[index + 1]) % (1 << 32)
        c = (c + words[index + 2]) % (1 << 32)
        a, b, c = mix(a, b, c)
        index += 3
        length -= 3
    if length == 3:
        c = (c + words[index + 2]) % (1 << 32)
    if length >= 2:
        b = (b + words[index + 1]) % (1 << 32)
    if length >= 1:
        a = (a + words[index]) % (1 << 32)
        c = final(a, b, c)
    return c % (1 << 32)


def ref_jhash_4tuple(four_tuple, initval: int = 0) -> int:
    """Flow hash of a 4-tuple via :func:`ref_jhash_words`."""
    ports = ((four_tuple.src_port % (1 << 16)) * (1 << 16)
             + four_tuple.dst_port % (1 << 16))
    return ref_jhash_words(
        [four_tuple.src_ip % (1 << 32), four_tuple.dst_ip % (1 << 32),
         ports], initval)


def ref_cascade(times: Sequence[float], events: Sequence[float],
                conns: Sequence[float], now: float,
                worker_ids: Sequence[int],
                hang_threshold: float, theta_ratio: float,
                filter_order: Sequence[str],
                capacity_limits: Optional[Sequence[Optional[int]]] = None,
                ) -> List[int]:
    """Algorithm 1 from the paper's prose, one naive filter at a time.

    ``times``/``events``/``conns`` are indexed by worker id (the WST
    columns); returns the surviving worker ids in candidate order.  No
    identity fast path, no hoisted averages — just the definition.
    """
    candidates = list(worker_ids)
    for stage in filter_order:
        if not candidates:
            break
        if stage == "time":
            candidates = [w for w in candidates
                          if now - times[w] < hang_threshold]
        elif stage in ("conn", "event"):
            values = conns if stage == "conn" else events
            avg = sum(values[w] for w in candidates) / len(candidates)
            candidates = [w for w in candidates
                          if values[w] <= avg + theta_ratio * avg]
        elif stage == "capacity":
            if capacity_limits is not None:
                candidates = [w for w in candidates
                              if capacity_limits[w] is None
                              or conns[w] < capacity_limits[w]]
        else:
            raise ValueError(f"unknown filter stage {stage!r}")
    return candidates


def ref_prequal_select(entries: Sequence[tuple], now: float, max_age: float,
                       q_hot: float, policy: str) -> Optional[tuple]:
    """The Prequal selection contract by naive full re-scan.

    ``entries`` is a pool snapshot *before* the fast path ran:
    ``(worker_id, rif, latency, t)`` tuples in arrival order.  Returns the
    winning ``(worker_id, rif, latency)`` or ``None`` for an empty (or
    fully stale) pool.  No lanes are precomputed, no sort keys — every
    candidate is walked and compared field by field.
    """
    live = [e for e in entries if e[3] >= now - max_age]
    if not live:
        return None

    def scan(candidates, first, second):
        # first/second: tuple indices of the primary/secondary sort field
        # (worker id is always the final tie-break).
        best = candidates[0]
        for entry in candidates[1:]:
            key_entry = (entry[first], entry[second], entry[0])
            key_best = (best[first], best[second], best[0])
            if key_entry < key_best:
                best = entry
        return best

    if policy == "latency":
        winner = scan(live, 2, 1)
    elif policy == "rif":
        winner = scan(live, 1, 2)
    elif policy == "hcl":
        rifs = sorted(entry[1] for entry in live)
        threshold = rifs[min(len(rifs) - 1, int(q_hot * len(rifs)))]
        cold = [entry for entry in live if entry[1] <= threshold]
        if cold:
            winner = scan(cold, 2, 1)
        else:
            winner = scan(live, 1, 2)
    else:
        raise ValueError(f"unknown prequal policy {policy!r}")
    return (winner[0], winner[1], winner[2])


# ---------------------------------------------------------------------------
# Fusing fast paths with their references.
# ---------------------------------------------------------------------------

class OracleStats:
    """Comparison counters for one :func:`live_oracles` window."""

    def __init__(self):
        #: oracle name -> number of agreeing comparisons.
        self.comparisons = {}
        #: Mismatches caught.  Each one raises where it happens; one
        #: raised inside a simulated process dies with that process, so
        #: :func:`live_oracles` raises the first again on exit.
        self.mismatches = 0
        self.first_mismatch: Optional[OracleMismatch] = None

    @property
    def total(self) -> int:
        return sum(self.comparisons.values())

    def count(self, name: str) -> None:
        self.comparisons[name] = self.comparisons.get(name, 0) + 1

    def mismatch(self, message: str) -> OracleMismatch:
        """Count a mismatch; return the error to raise."""
        error = OracleMismatch(message)
        self.mismatches += 1
        if self.first_mismatch is None:
            self.first_mismatch = error
        return error


def checked(fast: Callable, ref: Callable, name: str,
            stats: Optional[OracleStats] = None) -> Callable:
    """Wrap ``fast`` so every call is cross-checked against ``ref``.

    Returns the fast path's value (so checked code behaves identically)
    after asserting the reference agrees — on the value, or on the
    exception type when both refuse the input.  Any divergence raises
    :class:`OracleMismatch` naming the inputs.
    """
    if stats is None:
        stats = OracleStats()

    def wrapper(*args, **kwargs):
        try:
            got = fast(*args, **kwargs)
        except Exception as fast_exc:
            try:
                ref(*args, **kwargs)
            except type(fast_exc):
                raise  # both refuse alike: propagate the fast path's error
            raise stats.mismatch(
                f"{name}{args!r}: fast path raised "
                f"{type(fast_exc).__name__} but the reference did not"
            ) from fast_exc
        want = ref(*args, **kwargs)
        if got != want:
            raise stats.mismatch(
                f"{name}{args!r}: fast path returned {got!r}, "
                f"reference says {want!r}")
        stats.count(name)
        return got

    wrapper.__name__ = f"checked_{name}"
    return wrapper


@contextmanager
def live_oracles():
    """Arm differential checking on a live run (the ``--check`` switch).

    Patches the kernel dispatch program's module-level ``popcount64`` /
    ``find_nth_set_bit`` / ``reciprocal_scale`` bindings with checked
    versions and wraps ``CascadingScheduler.select_workers`` to re-derive
    every cascade decision with :func:`ref_cascade`.  Yields an
    :class:`OracleStats`; restores everything on exit, and raises
    :class:`OracleMismatch` there if a mismatch was counted but never
    reached the caller (a simulated process that raises just dies).  The
    checked wrappers always return the fast value, so a surviving run is
    byte-identical to an unchecked one.
    """
    from ..core import dispatch as _dispatch
    from ..core import groups as _groups
    from ..core.scheduler import CascadingScheduler
    from ..prequal.selector import PrequalSelector

    stats = OracleStats()
    saved = (_dispatch.popcount64, _dispatch.find_nth_set_bit,
             _dispatch.reciprocal_scale, CascadingScheduler.select_workers,
             _groups.reciprocal_scale, _groups.jhash_words,
             PrequalSelector.select)
    fast_select = saved[3]
    fast_prequal = saved[6]

    def checked_select(self, snapshot, now):
        times, events, conns = snapshot.times, snapshot.events, snapshot.conns
        selected = fast_select(self, snapshot, now)
        want = ref_cascade(
            times, events, conns, now, self.worker_ids,
            self.config.hang_threshold, self.config.theta_ratio,
            self.config.filter_order, self.capacity_limits)
        if list(selected) != want:
            raise stats.mismatch(
                f"cascade selected {list(selected)!r}, reference says "
                f"{want!r} (now={now}, times={times}, events={events}, "
                f"conns={conns})")
        stats.count("cascade")
        return selected

    def checked_prequal(self, now):
        # Snapshot first: the fast path evicts stale samples and charges
        # the winner's reuse budget as it runs.
        entries = [(s.worker_id, s.rif, s.latency, s.t)
                   for s in self.pool.entries]
        decision = fast_prequal(self, now)
        want = ref_prequal_select(entries, now, self.pool.max_age,
                                  self.config.q_hot, self.config.policy)
        got = (None if decision is None
               else (decision.worker_id, decision.rif, decision.latency))
        if got != want:
            raise stats.mismatch(
                f"prequal selected {got!r}, reference says {want!r} "
                f"(now={now}, policy={self.config.policy}, "
                f"pool={entries!r})")
        stats.count("prequal_select")
        return decision

    _dispatch.popcount64 = checked(
        saved[0], ref_popcount64, "popcount64", stats)
    _dispatch.find_nth_set_bit = checked(
        saved[1], ref_find_nth_set_bit, "find_nth_set_bit", stats)
    _dispatch.reciprocal_scale = checked(
        saved[2], ref_reciprocal_scale, "reciprocal_scale", stats)
    CascadingScheduler.select_workers = checked_select
    # Grouped (>64-worker) dispatch binds its own copies for level-1
    # routing; check those too.
    _groups.reciprocal_scale = checked(
        saved[4], ref_reciprocal_scale, "reciprocal_scale", stats)
    _groups.jhash_words = checked(
        saved[5], ref_jhash_words, "jhash_words", stats)
    PrequalSelector.select = checked_prequal
    try:
        yield stats
    finally:
        (_dispatch.popcount64, _dispatch.find_nth_set_bit,
         _dispatch.reciprocal_scale) = saved[:3]
        CascadingScheduler.select_workers = saved[3]
        _groups.reciprocal_scale, _groups.jhash_words = saved[4:6]
        PrequalSelector.select = saved[6]
    if stats.first_mismatch is not None:
        raise stats.first_mismatch
