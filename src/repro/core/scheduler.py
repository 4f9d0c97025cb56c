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

:meth:`CascadingScheduler.select_workers` is the one seam the cascade runs
through: :func:`repro.check.oracles.live_oracles` wraps it to re-derive
every decision from the paper's prose, so no fast path may bypass it.  It
runs the stages as one loop over ``config.filter_order``.

Most loop iterations publish nothing new (a 5 ms ``epoll_wait`` timeout
only refreshes timestamps), so the cascade keeps an *exact memo*.  When
FilterTime keeps every worker, the result depends only on the config, the
capacity limits and the conns and events columns.  An untraced
whole-column call whose config and limits are the same objects, and whose
columns equal the snapshot tuples kept from the last computed cascade,
returns that cascade's survivor list.  At seed 7 the memo serves 1,649 of
``hermes_case1``'s 27,354 cascades (6%) and 29,269 of ``fleet16``'s 36,036
(81%).  :meth:`~CascadingScheduler.schedule_and_sync` reuses the previous
:class:`ScheduleResult` while the bitmap and ``sync_enabled`` repeat; that
serves 56% of ``hermes_case1``'s runs and 93% of ``fleet16``'s.  The
fast-path ledger (docs/PERFORMANCE.md) keeps both, as a group with the
fleet's ``hrw_table`` cache: without the three, ``fleet16`` takes 1.24x
the CPU time.
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
        # ScheduleResult is built once per ``sync_enabled`` and per config;
        # the last other one is kept per ``sync_enabled`` too.
        self._costed_config = None
        self._cpu_costs = (0.0, 0.0)
        self._all_pass: List[Optional[ScheduleResult]] = [None, None]
        self._previous: List[Optional[ScheduleResult]] = [None, None]
        # The exact memo (see the module docstring).
        self._memo = None
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

        The stages run in ``config.filter_order``:

        - *time* keeps ``now - t < hang_threshold``;
        - *conn* / *event* (FilterCount) keep ``v <= avg + θ·avg`` over the
          stage's candidates.  The paper states a strict ``<``; ``<=`` keeps
          every worker of a perfectly uniform load (e.g. all zero at cold
          start) instead of none, which would force a reuseport fallback
          exactly when all workers are equally suitable;
        - *capacity* keeps workers whose connection pool has room.

        A stage that drops nobody returns its input list itself, so the
        no-drop cascade returns the scheduler's shared all-candidates list;
        an exact memo may return the previous cascade's list.  Callers must
        not mutate the result.
        """
        config = self.config
        tracer = self.tracer
        times = snapshot.times
        conns = snapshot.conns
        events = snapshot.events
        order = config.filter_order
        threshold = config.hang_threshold
        candidates = all_candidates = self._all_candidates
        # Whole column: the candidates are exactly the column indices in
        # order, so a stage can test "everyone passes" with one C-level
        # min/max/sum.  Float subtraction is monotone, so the oldest
        # timestamp passing means every timestamp passes, at any stage.
        whole = len(times) == self._whole_n
        times_pass = whole and ("time" not in order
                                or now - min(times) < threshold)
        # The memo serves 81% of fleet16's cascades, 6% of hermes_case1's.
        if times_pass and tracer is None:
            memo = self._memo
            if (memo is not None and memo[0] is config
                    and memo[1] is self.capacity_limits
                    and conns == memo[2] and events == memo[3]):
                return memo[4]
        theta = config.theta_ratio
        for stage in order:
            before = candidates
            if stage == "time":
                if not times_pass:
                    kept = [w for w in candidates
                            if now - times[w] < threshold]
                    if len(kept) != len(candidates):
                        candidates = kept
            elif stage == "conn" or stage == "event":
                if candidates:
                    values = conns if stage == "conn" else events
                    vals = (values if whole and candidates is all_candidates
                            else [values[w] for w in candidates])
                    # One explicit sum() keeps the float accumulation order.
                    avg = sum(vals) / len(vals)
                    baseline = avg + theta * avg
                    # A NaN anywhere makes the baseline NaN and fails the
                    # max() test too.
                    if not (vals is values and max(vals) <= baseline):
                        kept = [w for w, v in zip(candidates, vals)
                                if v <= baseline]
                        if len(kept) != len(candidates):
                            candidates = kept
            elif stage == "capacity":
                limits = self.capacity_limits
                if limits is not None:
                    kept = [w for w in candidates
                            if limits[w] is None or conns[w] < limits[w]]
                    if len(kept) != len(candidates):
                        candidates = kept
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
        if times_pass:
            self._memo = (config, self.capacity_limits, conns, events,
                          candidates)
        return candidates

    def schedule_and_sync(self) -> ScheduleResult:
        """One full run: read WST, cascade, sync bitmap to the kernel."""
        self.calls += 1
        tracer = self.tracer
        now = self._clock()
        if tracer is not None:
            tracer.begin("sched.decision", "sched",
                         n_workers=len(self.worker_ids))
        selected = self.select_workers(self.wst.read_all(), now)
        # Bitmap bit positions are *local* ranks within this scheduler's
        # worker set, so one 64-bit word covers any 64-worker group even if
        # global worker ids exceed 63.  Ranks and bits are precomputed in
        # __init__, and a cascade that dropped nobody reuses the all-pass
        # word.
        bits = self._bit
        all_pass = selected is self._all_candidates
        if bits is None:
            rank = self._rank
            bitmap = bitmap_from_ids([rank[w] for w in selected])
        elif all_pass:
            bitmap = self._all_bitmap
        else:
            bitmap = 0
            for w in selected:
                bitmap |= bits[w]
        sync = self.sync_enabled
        if sync:
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
            # The config may be reassigned at runtime; re-cost it then.
            costs = config.costs
            scan = n_workers * (costs.wst_read_per_worker
                                + costs.scheduler_per_worker)
            self._cpu_costs = (scan + 0.0, scan + costs.map_update_syscall)
            self._costed_config = config
            self._all_pass = [None, None]
            self._previous = [None, None]
        if tracer is not None:
            tracer.end("sched.decision", "sched", bitmap=bitmap,
                       n_selected=n)
        # Results are frozen and every field follows from the bitmap,
        # ``sync_enabled`` and the config: the all-pass result is kept per
        # ``sync_enabled``, and the last other one is reused while its
        # bitmap repeats (93% of fleet16's runs, 56% of hermes_case1's).
        if bits is not None and all_pass:
            slots = self._all_pass
        else:
            slots = self._previous
        result = slots[sync]
        if result is None or result.bitmap != bitmap:
            result = slots[sync] = ScheduleResult(
                bitmap=bitmap, n_selected=n, n_workers=n_workers,
                cpu_cost=self._cpu_costs[sync])
        return result

    @property
    def scheduler_cost_per_call(self) -> float:
        """Pure compute cost (no syscall) of one run — Table 5 split."""
        costs = self.config.costs
        return len(self.worker_ids) * (
            costs.wst_read_per_worker + costs.scheduler_per_worker)
