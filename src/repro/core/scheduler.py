"""The userspace cascading scheduler — Algorithm 1 (§5.2.2).

Every worker embeds one of these and calls :meth:`schedule_and_sync` at the
*end* of each epoll event-loop iteration (§5.3.2 explains why the end: the
status published there reflects the just-finished batch, not a stale
pre-``epoll_wait`` idle snapshot).

The cascade:

1. *FilterTime* — drop workers whose loop-entry timestamp is older than the
   hang threshold (abnormal/hung workers, highest priority).
2. *FilterCount over conns* — drop workers whose accumulated connection
   count is above ``avg + θ`` (guards against synchronized surges on
   long-lived connections).
3. *FilterCount over events* — drop workers with above-baseline pending
   events (slow responders).

The surviving set is encoded as a 64-bit bitmap and pushed to the kernel's
selection map with one ``bpf()`` syscall.  Complexity is O(n) in the number
of workers; the cost model reflects that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..sim.monitor import Samples
from .bitmap import bitmap_from_ids
from .config import HermesConfig
from .ebpf import BpfArrayMap
from .wst import WorkerStatusTable, WstSnapshot

__all__ = ["CascadingScheduler", "ScheduleResult"]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one scheduler run."""

    bitmap: int
    n_selected: int
    n_workers: int
    #: CPU seconds the run cost (WST scan + filtering + map syscall).
    cpu_cost: float

    @property
    def pass_ratio(self) -> float:
        return self.n_selected / self.n_workers if self.n_workers else 0.0


class CascadingScheduler:
    """Algorithm 1: cascading worker filtering + kernel sync."""

    def __init__(self, wst: WorkerStatusTable, sel_map: BpfArrayMap,
                 config: Optional[HermesConfig] = None,
                 clock: Optional[Callable[[], float]] = None,
                 worker_ids: Optional[Sequence[int]] = None,
                 sel_key: int = 0,
                 capacity_limits: Optional[Sequence[Optional[int]]] = None):
        self.wst = wst
        self.sel_map = sel_map
        self.config = config or HermesConfig()
        self._clock = clock or (lambda: 0.0)
        #: The candidate universe (defaults to every WST column).
        self.worker_ids: Tuple[int, ...] = tuple(
            worker_ids if worker_ids is not None else range(wst.n_workers))
        self.sel_key = sel_key
        # Hoisted out of the per-call path: local rank of each worker id
        # (bitmap bit positions) and its precomputed bit, plus the full
        # candidate list and its all-pass bitmap for the no-drop fast path.
        self._rank = {w: i for i, w in enumerate(self.worker_ids)}
        self._all_candidates = list(self.worker_ids)
        # Column length for which the full candidate list is exactly the
        # WST column indices in order (true for every build_groups group);
        # -1 when it never is.  A stage over such a list can test "everyone
        # passes" with one C-level min/max/sum over the column.
        n = len(self.worker_ids)
        self._whole_n = n if self.worker_ids == tuple(range(n)) else -1
        # ScheduleResult.cpu_cost without and with the map sync, indexed by
        # ``sync_enabled``; recomputed per config object.  The all-pass
        # ScheduleResult is built once per ``sync_enabled`` and per config.
        self._costed_config = None
        self._cpu_costs = (0.0, 0.0)
        self._all_pass: List[Optional[ScheduleResult]] = [None, None]
        # Zero-copy table read when the WST offers it (the simulation WST's
        # atomic mode); duck-typed tables (e.g. the real-shm seqlock one)
        # keep their copying read_all.
        self._read_table = getattr(wst, "read_view", wst.read_all)
        if len(self.worker_ids) <= 64:
            self._bit = {w: 1 << i for i, w in enumerate(self.worker_ids)}
            self._all_bitmap = bitmap_from_ids(self._rank.values())
        else:
            # Oversized groups keep the validating slow path so the same
            # ValueError fires at schedule time, exactly as before.
            self._bit = None
            self._all_bitmap = None
        #: Optional per-worker connection-pool limits, indexed like the
        #: WST.  Enables the "capacity" filter stage (§5.1.1: never
        #: select a worker whose preallocated pool is full).
        self.capacity_limits: Optional[Tuple[Optional[int], ...]] = (
            tuple(capacity_limits) if capacity_limits is not None else None)
        #: Optional :class:`repro.obs.Tracer`; emits one event per filter
        #: stage with the dropped workers and reason (None = untraced).
        self.tracer = None
        #: When False the scheduler still runs the cascade but stops pushing
        #: the bitmap to the kernel map — the ``bitmap_sync_loss`` fault
        #: (``repro.faults``): the eBPF program keeps dispatching on the
        #: last synced (stale) worker set.
        self.sync_enabled = True
        #: Runs skipped past the kernel sync while ``sync_enabled`` is off.
        self.syncs_suppressed = 0
        # -- statistics (Fig. 14) -------------------------------------------
        self.calls = 0
        self.pass_ratios = Samples("coarse_pass_ratio")
        self.last_bitmap = 0
        #: Runs where every candidate was filtered out (kernel will fall
        #: back to plain reuseport).
        self.empty_results = 0

    # -- the three filters ---------------------------------------------------
    def _whole_column(self, candidates: List[int],
                      column: Sequence[float]) -> bool:
        """True when ``candidates`` are exactly ``column``'s indices in order."""
        return (candidates is self._all_candidates
                and len(column) == self._whole_n)

    def filter_time(self, snapshot: WstSnapshot,
                    candidates: List[int], now: float) -> List[int]:
        """Keep workers whose event loop re-entered recently (FilterTime).

        Returns ``candidates`` itself (identity) when nothing is dropped —
        the common steady-state case — so downstream stages and the tracer
        can skip drop bookkeeping with one ``is`` check.
        """
        threshold = self.config.hang_threshold
        times = snapshot.times
        # Float subtraction is monotone, so the oldest timestamp passing
        # means every timestamp passes.
        if (self._whole_column(candidates, times)
                and now - min(times) < threshold):
            return candidates
        kept = [w for w in candidates if now - times[w] < threshold]
        return candidates if len(kept) == len(candidates) else kept

    @staticmethod
    def _filter_count(values: Sequence[float], candidates: List[int],
                      theta_ratio: float,
                      whole_column: bool = False) -> List[int]:
        """FilterCount: keep workers with ``value <= avg + θ``.

        θ = ``theta_ratio * avg``.  The paper states a strict ``<``; we use
        ``<=`` so a perfectly uniform load (all values equal, e.g. all
        zero at cold start) keeps every worker instead of none — the strict
        form would force a reuseport fallback exactly when all workers are
        equally suitable.  ``whole_column`` says ``candidates`` are exactly
        the indices of ``values`` in order, so the column is used as is.
        """
        if not candidates:
            return candidates
        # One indexing pass feeds both the average and the comparison; the
        # explicit sum() keeps float accumulation order (and thus results)
        # identical to the two-pass form.
        vals = values if whole_column else [values[w] for w in candidates]
        avg = sum(vals) / len(vals)
        baseline = avg + theta_ratio * avg
        # A NaN anywhere makes the baseline NaN and fails this test too.
        if whole_column and max(vals) <= baseline:
            return candidates
        kept = [w for w, v in zip(candidates, vals) if v <= baseline]
        return candidates if len(kept) == len(candidates) else kept

    def filter_conn(self, snapshot: WstSnapshot,
                    candidates: List[int]) -> List[int]:
        conns = snapshot.conns
        return self._filter_count(conns, candidates, self.config.theta_ratio,
                                  self._whole_column(candidates, conns))

    def filter_event(self, snapshot: WstSnapshot,
                     candidates: List[int]) -> List[int]:
        events = snapshot.events
        return self._filter_count(events, candidates, self.config.theta_ratio,
                                  self._whole_column(candidates, events))

    def filter_capacity(self, snapshot: WstSnapshot,
                        candidates: List[int]) -> List[int]:
        """Drop workers whose connection pool is full (absolute filter,
        unlike the relative FilterCount stages)."""
        limits = self.capacity_limits
        if limits is None:
            return candidates
        conns = snapshot.conns
        kept = [w for w in candidates
                if limits[w] is None or conns[w] < limits[w]]
        return candidates if len(kept) == len(candidates) else kept

    #: Why each cascade stage drops a worker (trace drop reasons).
    DROP_REASONS = {
        "time": "loop-entry timestamp older than hang threshold",
        "conn": "connection count above avg+theta",
        "event": "pending event count above avg+theta",
        "capacity": "connection pool full",
    }

    # -- the full cascade ------------------------------------------------
    def select_workers(self, snapshot: WstSnapshot,
                       now: float) -> List[int]:
        """Run the cascade over a snapshot; returns surviving worker ids.

        May return the scheduler's shared all-candidates list when every
        stage passed everything through (identity fast path) — callers must
        not mutate the result.
        """
        tracer = self.tracer
        candidates = self._all_candidates
        for stage in self.config.filter_order:
            before = candidates
            if stage == "time":
                candidates = self.filter_time(snapshot, candidates, now)
            elif stage == "conn":
                candidates = self.filter_conn(snapshot, candidates)
            elif stage == "event":
                candidates = self.filter_event(snapshot, candidates)
            elif stage == "capacity":
                candidates = self.filter_capacity(snapshot, candidates)
            else:  # pragma: no cover - config validates
                raise ValueError(f"unknown filter stage {stage!r}")
            if tracer is not None:
                if candidates is before:
                    dropped = []
                else:
                    survivors = set(candidates)
                    dropped = [w for w in before if w not in survivors]
                tracer.instant(
                    "sched.filter", "sched", stage=stage, before=len(before),
                    after=len(candidates), dropped=dropped,
                    reason=self.DROP_REASONS[stage] if dropped else None)
        return candidates

    def schedule_and_sync(self) -> ScheduleResult:
        """One full run: read WST, cascade, sync bitmap to the kernel."""
        self.calls += 1
        tracer = self.tracer
        now = self._clock()
        if tracer is not None:
            tracer.begin("sched.decision", "sched",
                         n_workers=len(self.worker_ids))
        snapshot = self._read_table()
        selected = self.select_workers(snapshot, now)
        # Bitmap bit positions are *local* ranks within this scheduler's
        # worker set, so one 64-bit word covers any 64-worker group even if
        # global worker ids exceed 63.  Ranks and bits are precomputed in
        # __init__; a cascade that dropped nobody reuses the all-pass word.
        bits = self._bit
        if bits is None:
            rank = self._rank
            bitmap = bitmap_from_ids([rank[w] for w in selected])
        elif selected is self._all_candidates:
            bitmap = self._all_bitmap
        else:
            bitmap = 0
            for w in selected:
                bitmap |= bits[w]
        if self.sync_enabled:
            self.sel_map.update_from_user(self.sel_key, bitmap)
        else:
            # bitmap_sync_loss fault: userspace computed a fresh decision
            # but the bpf() push never happens; the kernel map stays stale.
            self.syncs_suppressed += 1
        self.last_bitmap = bitmap
        n = len(selected)
        if n == 0:
            self.empty_results += 1
        n_workers = len(self.worker_ids)
        self.pass_ratios.add(n / n_workers)
        config = self.config
        if config is not self._costed_config:
            # The control plane may swap the config at runtime.
            costs = config.costs
            scan = n_workers * (costs.wst_read_per_worker
                                + costs.scheduler_per_worker)
            self._cpu_costs = (scan + 0.0, scan + costs.map_update_syscall)
            self._costed_config = config
            self._all_pass = [None, None]
        if tracer is not None:
            tracer.end("sched.decision", "sched", bitmap=bitmap,
                       n_selected=n)
        sync = self.sync_enabled
        if bits is not None and selected is self._all_candidates:
            # Every field is fixed for the all-pass case; results are frozen.
            result = self._all_pass[sync]
            if result is None:
                result = self._all_pass[sync] = ScheduleResult(
                    bitmap=bitmap, n_selected=n, n_workers=n_workers,
                    cpu_cost=self._cpu_costs[sync])
            return result
        return ScheduleResult(bitmap=bitmap, n_selected=n,
                              n_workers=n_workers,
                              cpu_cost=self._cpu_costs[sync])

    @property
    def scheduler_cost_per_call(self) -> float:
        """Pure compute cost (no syscall) of one run — Table 5 split."""
        costs = self.config.costs
        return len(self.worker_ids) * (
            costs.wst_read_per_worker + costs.scheduler_per_worker)
