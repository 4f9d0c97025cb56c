"""Ablations of Hermes design choices (§5 discussion points).

1. **Filter order / filter subsets** — the cascade time → conn → event
   versus permutations and single-metric filters.
2. **Scheduler placement** — end of the event loop (status reflects the
   just-finished batch) vs start (stale pre-``epoll_wait`` snapshot).
3. **Two-stage filtering** — passing a candidate *set* to the kernel vs
   passing only the single best worker (worker-overload prevention,
   §5.3.2).
4. **Kernel fallback threshold** — ``min_workers``.
5. **Update channel** — Hermes's periodic userspace push vs the rejected
   per-connection kernel pull (§5.1.2), quantified as syscall volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..core.bitmap import bitmap_from_ids
from ..core.config import HermesConfig
from ..lb.server import NotificationMode
from ..workloads.cases import build_case_workload
from .common import CellResult, run_spec
from .registry import CellSpec, ExperimentSpec, check_claims, register

__all__ = [
    "run_filter_order_ablation",
    "run_scheduler_placement_ablation",
    "run_single_worker_ablation",
    "run_min_workers_ablation",
    "run_metric_cost_ablation",
    "UpdateChannelCost",
    "update_channel_costs",
]


def _run_hermes(config: HermesConfig, case: str, load: str,
                n_workers: int, duration: float, seed: int,
                keep_server: bool = False) -> CellResult:
    spec = build_case_workload(case, load, n_workers=n_workers,
                               duration=duration)
    return run_spec(NotificationMode.HERMES, spec, n_workers=n_workers,
                    seed=seed, config=config, settle=1.0,
                    keep_server=keep_server)


# ---------------------------------------------------------------------------
# 1. Filter order / subsets.
# ---------------------------------------------------------------------------

def run_filter_order_ablation(
        orders: Sequence[Tuple[str, ...]] = (
            ("time", "conn", "event"),   # the paper's cascade
            ("event", "conn", "time"),
            ("time",), ("conn",), ("event",), ()),
        case: str = "case2", load: str = "medium",
        n_workers: int = 8, duration: float = 4.0,
        seed: int = 97) -> Dict[Tuple[str, ...], CellResult]:
    """Which metrics matter?  The empty order disables all filtering
    (every worker always passes — pure hash over everyone)."""
    results = {}
    for order in orders:
        config = HermesConfig(filter_order=tuple(order))
        results[tuple(order)] = _run_hermes(
            config, case, load, n_workers, duration, seed)
    return results


# ---------------------------------------------------------------------------
# 2. Scheduler placement (end vs start of loop).
# ---------------------------------------------------------------------------

def run_scheduler_placement_ablation(
        case: str = "case2", load: str = "medium", n_workers: int = 8,
        duration: float = 4.0, seed: int = 101,
        ) -> Dict[str, CellResult]:
    """End-of-loop scheduling sees post-batch status; start-of-loop sees a
    pre-``epoll_wait`` snapshot that can look idle right before a burst
    lands (§5.3.2)."""
    from ..lb.worker import Worker, WorkerState
    from ..sim.engine import Interrupt

    results = {}
    results["end_of_loop"] = _run_hermes(
        HermesConfig(), case, load, n_workers, duration, seed)

    original_run = Worker.run

    def run_with_scheduler_at_start(self):
        try:
            while True:
                self._hermes_touch()
                # Ablation: schedule BEFORE the batch — stale status.
                self._hermes_schedule()
                if self._forced_hang > 0:
                    hang = self._forced_hang
                    self._forced_hang = 0.0
                    yield from self._busy(hang)
                wait_cost = (self.profile.per_port_wait_cost
                             * self._shared_socket_count)
                if wait_cost > 0:
                    yield from self._busy(wait_cost)
                events = yield from self.epoll.wait(
                    self.config.epoll_timeout, self.config.max_events)
                if events:
                    self._hermes_events(len(events))
                for event in events:
                    yield from self.handle_event(event)
                    self._hermes_events(-1)
                if self._pending_charge > 0:
                    charge = self._pending_charge
                    self._pending_charge = 0.0
                    yield from self._busy(charge)
        except Interrupt:
            self.state = WorkerState.CRASHED
            self.metrics.cpu.end()
            return

    Worker.run = run_with_scheduler_at_start
    try:
        results["start_of_loop"] = _run_hermes(
            HermesConfig(), case, load, n_workers, duration, seed)
    finally:
        Worker.run = original_run
    return results


# ---------------------------------------------------------------------------
# 3. Two-stage filtering vs single best worker.
# ---------------------------------------------------------------------------

def run_single_worker_ablation(
        case: str = "case1", load: str = "medium", n_workers: int = 8,
        duration: float = 3.0, seed: int = 103,
        sync_interval: float = 0.020) -> Dict[str, CellResult]:
    """§5.3.2: in production, userspace updates reach the kernel far less
    often than connections arrive (O(10k)/s updates vs O(100k)/s CPS), so
    passing a *single* worker would aim every SYN between two updates at
    it.  We throttle kernel syncs to one per ``sync_interval`` per group
    (reproducing the production update:arrival ratio) and compare passing
    the full candidate set against passing only the best worker."""
    from ..core.scheduler import CascadingScheduler

    original = CascadingScheduler.schedule_and_sync

    from ..core.scheduler import ScheduleResult

    def throttled(single: bool):
        def schedule_and_sync(self):
            now = self._clock()
            last = getattr(self, "_last_sync", -1e9)
            if now - last < sync_interval:
                # No sync this iteration — the kernel keeps dispatching on
                # the previous decision.
                return ScheduleResult(bitmap=self.last_bitmap, n_selected=0,
                                      n_workers=len(self.worker_ids),
                                      cpu_cost=0.0)
            self._last_sync = now
            result = original(self)
            if single:
                snapshot = self.wst.read_all()
                selected = self.select_workers(snapshot, now)
                if selected:
                    best = min(selected,
                               key=lambda w: (snapshot.conns[w],
                                              snapshot.events[w]))
                    rank = {w: i for i, w in enumerate(self.worker_ids)}
                    self.sel_map.update_from_user(
                        self.sel_key, bitmap_from_ids([rank[best]]))
            return result
        return schedule_and_sync

    results = {}
    for name, single, min_workers in (("candidate_set", False, 2),
                                      ("single_worker", True, 1)):
        CascadingScheduler.schedule_and_sync = throttled(single)
        try:
            results[name] = _run_hermes(
                HermesConfig(min_workers=min_workers), case, load,
                n_workers, duration, seed)
        finally:
            CascadingScheduler.schedule_and_sync = original
    return results


# ---------------------------------------------------------------------------
# 4. Kernel fallback threshold.
# ---------------------------------------------------------------------------

def run_min_workers_ablation(
        values: Sequence[int] = (1, 2, 4),
        case: str = "case2", load: str = "heavy", n_workers: int = 8,
        duration: float = 4.0, seed: int = 107) -> Dict[int, CellResult]:
    results = {}
    for min_workers in values:
        config = HermesConfig(min_workers=min_workers)
        results[min_workers] = _run_hermes(
            config, case, load, n_workers, duration, seed)
    return results


# ---------------------------------------------------------------------------
# 5. Metric collection cost (§5.1.1): cheap counters vs USS-style metrics.
# ---------------------------------------------------------------------------

def run_metric_cost_ablation(
        case: str = "case1", load: str = "medium", n_workers: int = 8,
        duration: float = 3.0, seed: int = 105) -> Dict[str, CellResult]:
    """§5.1.1 rejects metrics that are accurate but expensive to collect:
    USS needs smaps parsing (milliseconds per read), while the chosen
    counters are nanosecond atomic updates.  We charge each regime's
    per-scheduler-run collection cost to worker CPU and compare."""
    from ..core.config import OverheadCosts

    cheap = HermesConfig()  # default ns-scale counter reads
    # USS-style: ~0.25 ms of smaps parsing per worker scanned per run.
    uss_costs = OverheadCosts(wst_read_per_worker=250e-6)
    expensive = HermesConfig(costs=uss_costs)
    return {
        "cheap_counters": _run_hermes(cheap, case, load, n_workers,
                                      duration, seed),
        "uss_style_metrics": _run_hermes(expensive, case, load, n_workers,
                                         duration, seed),
    }


# ---------------------------------------------------------------------------
# 6. Update channel: periodic push vs per-connection pull.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpdateChannelCost:
    """Interaction cost of the two designs (§5.1.2).

    The rejected design queries userspace on every new connection — a
    kernel→user round trip (upcall + context switch, ~10 µs) *on the SYN
    critical path*.  Hermes pushes one asynchronous map-update syscall
    (~1.5 µs) per scheduler run, off the connection path.
    """

    push_updates_per_sec: float
    pull_interactions_per_sec: float
    #: CPU seconds per second spent on each channel.
    push_cpu_share: float
    pull_cpu_share: float
    #: Added latency every connection would pay under the pull design.
    pull_critical_path_latency: float

    @property
    def cpu_ratio(self) -> float:
        return (self.pull_cpu_share / self.push_cpu_share
                if self.push_cpu_share else float("inf"))


#: Cost of one kernel→userspace query round trip (upcall + 2 context
#: switches + cache pollution).
PULL_ROUNDTRIP_COST = 10e-6


def update_channel_costs(case: str = "case1", load: str = "heavy",
                         n_workers: int = 8, duration: float = 3.0,
                         seed: int = 109) -> UpdateChannelCost:
    result = _run_hermes(HermesConfig(), case, load, n_workers, duration,
                         seed, keep_server=True)
    server = result.server
    elapsed = server.metrics.elapsed
    pushes = sum(g.sel_map.user_updates for g in server.groups) / elapsed
    pulls = server.metrics.connections_accepted / elapsed
    syscall_cost = server.config.costs.map_update_syscall
    return UpdateChannelCost(
        push_updates_per_sec=pushes,
        pull_interactions_per_sec=pulls,
        push_cpu_share=pushes * syscall_cost,
        pull_cpu_share=pulls * PULL_ROUNDTRIP_COST,
        pull_critical_path_latency=PULL_ROUNDTRIP_COST)


# ---------------------------------------------------------------------------
# Registry wiring: one cell per ablation section.
# ---------------------------------------------------------------------------

def _update_channel_line(cost: UpdateChannelCost) -> str:
    return (f"update channel: push {cost.push_updates_per_sec:.0f}/s "
            f"({cost.push_cpu_share * 100:.2f}% CPU, off-path) vs pull "
            f"{cost.pull_interactions_per_sec:.0f}/s "
            f"({cost.pull_cpu_share * 100:.2f}% CPU, on the SYN path; "
            f"x{cost.cpu_ratio:.1f})")


#: (cell key, seed offset) — offsets reproduce each section's legacy
#: default seed from the experiment's base seed (97).
_SECTIONS = (("filter_order", 0), ("scheduler_placement", 4),
             ("single_worker", 6), ("min_workers", 10),
             ("metric_cost", 8), ("update_channel", 12))


def _cells(seed, overrides):
    params = {"n_workers": overrides.get("n_workers", 8),
              "duration_scale": overrides.get("duration_scale", 1.0)}
    return tuple(CellSpec("ablations", key, dict(params), seed + offset)
                 for key, offset in _SECTIONS)


def _run_cell(cell):
    n_workers = cell.params["n_workers"]
    scale = cell.params["duration_scale"]
    seed = cell.seed
    key = cell.key
    if key == "filter_order":
        results = run_filter_order_ablation(
            n_workers=n_workers, duration=4.0 * scale, seed=seed)
        lines = ["filter order ablation (case2 medium):"]
        doc: Dict[str, dict] = {}
        for order, r in results.items():
            label = ",".join(order) or "(none)"
            doc[label] = r.to_doc()
            lines.append(f"  {label:24s} avg {r.avg_ms:8.2f} ms  "
                         f"p99 {r.p99_ms:9.2f} ms")
        return {"results": doc, "rendered": "\n".join(lines)}
    if key == "scheduler_placement":
        results = run_scheduler_placement_ablation(
            n_workers=n_workers, duration=4.0 * scale, seed=seed)
        lines = ["scheduler placement:"]
        lines += [f"  {name:14s} avg {r.avg_ms:8.2f} ms  "
                  f"p99 {r.p99_ms:9.2f} ms" for name, r in results.items()]
        return {"results": {k: r.to_doc() for k, r in results.items()},
                "rendered": "\n".join(lines)}
    if key == "single_worker":
        results = run_single_worker_ablation(
            n_workers=n_workers, duration=3.0 * scale, seed=seed)
        lines = ["two-stage vs single worker (case1 medium):"]
        lines += [f"  {name:14s} avg {r.avg_ms:8.2f} ms  "
                  f"p99 {r.p99_ms:9.2f} ms" for name, r in results.items()]
        return {"results": {k: r.to_doc() for k, r in results.items()},
                "rendered": "\n".join(lines)}
    if key == "min_workers":
        results = run_min_workers_ablation(
            n_workers=n_workers, duration=4.0 * scale, seed=seed)
        lines = ["min_workers (case2 heavy):"]
        lines += [f"  n>={k}: avg {r.avg_ms:8.2f} ms  "
                  f"p99 {r.p99_ms:9.2f} ms" for k, r in results.items()]
        return {"results": {str(k): r.to_doc() for k, r in results.items()},
                "rendered": "\n".join(lines)}
    if key == "metric_cost":
        results = run_metric_cost_ablation(
            n_workers=n_workers, duration=3.0 * scale, seed=seed)
        lines = ["metric collection cost (case1 medium):"]
        lines += [f"  {name:18s} avg {r.avg_ms:8.2f} ms  thr "
                  f"{r.throughput_rps:8.0f} rps"
                  for name, r in results.items()]
        return {"results": {k: r.to_doc() for k, r in results.items()},
                "rendered": "\n".join(lines)}
    from dataclasses import asdict
    cost = update_channel_costs(
        n_workers=n_workers, duration=3.0 * scale, seed=seed)
    return dict(asdict(cost), cpu_ratio=cost.cpu_ratio,
                rendered=_update_channel_line(cost))


def _merge(cells, docs):
    return {"cells": {cell.key: doc for cell, doc in zip(cells, docs)},
            "rendered": "\n".join(doc["rendered"] for doc in docs)}


def _avg(results, arm) -> str:
    return f"{arm} {results[arm]['avg_ms']:.2f} ms"


def _filter_order(doc):
    r = doc["results"]
    cascade, none = r["time,conn,event"]["avg_ms"], r["(none)"]["avg_ms"]
    return (cascade < none and cascade < r["conn"]["avg_ms"]
            and r["time"]["avg_ms"] < none,
            ", ".join(_avg(r, arm) for arm in (
                "time,conn,event", "time", "conn", "(none)")))


def _placement(doc):
    r = doc["results"]
    end, start = r["end_of_loop"], r["start_of_loop"]
    return (end["avg_ms"] <= 1.1 * start["avg_ms"]
            and end["completed"] > 0 and start["completed"] > 0,
            f"{_avg(r, 'end_of_loop')} vs {_avg(r, 'start_of_loop')} "
            f"(completed {end['completed']}, {start['completed']})")


def _single_worker(doc):
    r = doc["results"]
    return (r["single_worker"]["avg_ms"] > 2 * r["candidate_set"]["avg_ms"],
            f"{_avg(r, 'single_worker')} vs {_avg(r, 'candidate_set')}")


def _min_workers(doc):
    p99 = {k: r["p99_ms"] for k, r in doc["results"].items()}
    return (p99["2"] < p99["4"],
            f"p99 n>=2 {p99['2']:.2f} ms vs n>=4 {p99['4']:.2f} ms")


def _metric_cost(doc):
    r = doc["results"]
    cheap, uss = r["cheap_counters"], r["uss_style_metrics"]
    return (uss["avg_ms"] > 10 * cheap["avg_ms"]
            and uss["throughput_rps"] < cheap["throughput_rps"],
            f"avg {uss['avg_ms']:.2f} vs {cheap['avg_ms']:.2f} ms, "
            f"{uss['throughput_rps']:,.0f} vs "
            f"{cheap['throughput_rps']:,.0f} rps")


def _update_channel(doc):
    return (doc["cpu_ratio"] > 3.0 and doc["pull_critical_path_latency"] > 0,
            f"x{doc['cpu_ratio']:.1f} CPU, "
            f"{doc['pull_critical_path_latency'] * 1e6:.0f} us on every SYN")


def _claims(merged):
    return check_claims(merged["cells"], (
        ("cascade_beats_no_filter_and_conn_only", ["filter_order"],
         _filter_order),
        ("end_of_loop_scheduling_never_loses", ["scheduler_placement"],
         _placement),
        ("single_worker_over_2x_candidate_set_latency", ["single_worker"],
         _single_worker),
        ("min_workers_2_tail_below_4", ["min_workers"], _min_workers),
        ("uss_metrics_wreck_latency_and_throughput", ["metric_cost"],
         _metric_cost),
        ("pull_channel_over_3x_push_cpu", ["update_channel"],
         _update_channel),
    ))


register(ExperimentSpec(
    name="ablations", title="Design-choice ablations (§5 discussion)",
    cells=_cells, run_cell=_run_cell, merge=_merge,
    render=lambda merged: merged["rendered"], default_seed=97,
    claims=_claims,
    tunables={"n_workers": "workers behind every ablation device",
              "duration_scale": "multiplier on every section's duration"}))
