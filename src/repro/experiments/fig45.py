"""Figs. 4 & 5 — per-worker epoll statistics under epoll exclusive.

Fig. 4: CDF of the number of events returned per ``epoll_wait()`` for four
workers on one device — busy workers harvest more events per call.
Fig. 5a: CDF of event processing time — one worker handles more
computation-intensive tasks.  Fig. 5b: CDF of ``epoll_wait()`` blocking
time — idle workers block the full 5 ms timeout, busy ones return fast.

The heterogeneity is intrinsic: exclusive's LIFO wakeups concentrate work.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from ..cell import build_cell
from ..lb.server import NotificationMode
from ..workloads.cases import build_case_workload
from .registry import Claim, simple_experiment

__all__ = ["EpollStatsResult", "run_fig45"]

CdfSeries = List[Tuple[float, float]]


@dataclass
class EpollStatsResult:
    mode: str
    #: worker id -> CDF of #events per epoll_wait (Fig. 4).
    events_per_wait: Dict[int, CdfSeries]
    #: worker id -> CDF of event processing time, seconds (Fig. 5a).
    processing_times: Dict[int, CdfSeries]
    #: worker id -> CDF of epoll_wait blocking time, seconds (Fig. 5b).
    blocking_times: Dict[int, CdfSeries]
    #: worker id -> mean events per wait (imbalance summary).
    mean_events: Dict[int, float]
    #: worker id -> fraction of waits that blocked the full timeout.
    idle_fraction: Dict[int, float]


def run_fig45(mode: NotificationMode = NotificationMode.EXCLUSIVE,
              n_workers: int = 4, duration: float = 10.0,
              seed: int = 31) -> EpollStatsResult:
    # A mix of small and heavier requests so processing-time CDFs differ.
    spec = build_case_workload("case3", "medium", n_workers=n_workers,
                               duration=duration, ports=(443, 444))
    cell = build_cell(spec, mode, seed, n_workers=n_workers)
    for worker in cell.server.workers:
        worker.epoll.collect_stats = True
    server = cell.run(until=duration + 0.5).server

    timeout = server.config.epoll_timeout
    events_cdf, proc_cdf, block_cdf = {}, {}, {}
    mean_events, idle_fraction = {}, {}
    for worker in server.workers:
        epoll = worker.epoll
        events_cdf[worker.worker_id] = epoll.events_per_wait.cdf()
        proc_cdf[worker.worker_id] = \
            worker.metrics.event_processing_times.cdf()
        block_cdf[worker.worker_id] = epoll.blocking_times.cdf()
        mean_events[worker.worker_id] = epoll.events_per_wait.mean
        blocks = epoll.blocking_times.values
        idle_fraction[worker.worker_id] = (
            sum(1 for b in blocks if b >= timeout * 0.99) / len(blocks)
            if blocks else 0.0)
    return EpollStatsResult(
        mode=mode.value,
        events_per_wait=events_cdf,
        processing_times=proc_cdf,
        blocking_times=block_cdf,
        mean_events=mean_events,
        idle_fraction=idle_fraction,
    )


def _rendered(result: EpollStatsResult) -> str:
    mean_line = {k: round(v, 3) for k, v in result.mean_events.items()}
    idle_line = {k: round(v, 3) for k, v in result.idle_fraction.items()}
    return (f"mean events/wait: {mean_line}\n"
            f"idle fraction:    {idle_line}")


def _well_formed(cdf) -> bool:
    fractions = [f for _, f in cdf]
    return fractions == sorted(fractions) and fractions[-1] == 1.0


def _claims(merged: dict) -> Tuple[Claim, ...]:
    means = sorted(merged["mean_events"].values())
    idle = sorted(merged["idle_fraction"].values())
    processing = merged["processing_times"]
    return (
        Claim("busiest_worker_harvests_more_events_per_wait",
              means[-1] > 1.15 * means[0],
              f"mean events/wait {means[-1]:.3f} vs {means[0]:.3f}"),
        Claim("events_per_wait_cdfs_well_formed",
              all(_well_formed(cdf)
                  for cdf in merged["events_per_wait"].values()),
              f"{len(merged['events_per_wait'])} per-worker CDFs"),
        Claim("idle_workers_block_the_full_timeout_more",
              idle[-1] > 2 * idle[0] or idle[0] == 0,
              f"idle fraction {idle[-1]:.3f} vs {idle[0]:.3f}"),
        Claim("every_worker_records_processing_times",
              all(processing.values()),
              f"{sum(1 for cdf in processing.values() if cdf)} of "
              f"{len(processing)} workers"),
    )


def _runner(seed: int, params: dict) -> dict:
    result = run_fig45(
        NotificationMode(params.get("mode", "exclusive")),
        n_workers=params.get("n_workers", 4),
        duration=params.get("duration", 10.0), seed=seed)
    return dict(asdict(result), rendered=_rendered(result))


simple_experiment("fig45", "Per-worker epoll statistics (Figs. 4 & 5)",
                  _runner, default_seed=31, claims=_claims,
                  tunables={"mode": "notification mode (default exclusive)",
                            "n_workers": "workers behind the device",
                            "duration": "workload duration (s)"})


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(_rendered(run_fig45()))
