"""Worker-count scaling: do the Table-3 gaps persist at the paper's size?

The evaluation devices are 32-core VMs; most of this repo's benches use 8
simulated workers for wall-clock economy.  This sweep re-runs a Table-3
cell at 4/8/16/32 workers and checks that the mode ordering — and
exclusive's concentration — are scale-invariant, so the scaled-down
benches speak for the paper-sized configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..lb.server import NotificationMode
from .common import CellResult, run_case_cell
from .registry import CellSpec, lined_experiment

__all__ = ["ScalingPoint", "run_scaling"]


@dataclass(frozen=True)
class ScalingPoint:
    n_workers: int
    mode: str
    avg_ms: float
    p99_ms: float
    cpu_sd: float
    #: max/mean accepted connections per worker (concentration measure).
    accept_imbalance: float


def _imbalance(accepted: List[int]) -> float:
    total = sum(accepted)
    if total == 0:
        return 1.0
    return max(accepted) / (total / len(accepted))


def _point(n_workers: int, mode: NotificationMode, case: str, load: str,
           duration: float, seed: int) -> ScalingPoint:
    cell: CellResult = run_case_cell(
        mode, case, load, n_workers=n_workers,
        duration=duration, seed=seed)
    return ScalingPoint(
        n_workers=n_workers,
        mode=mode.value,
        avg_ms=cell.avg_ms,
        p99_ms=cell.p99_ms,
        cpu_sd=cell.cpu_sd,
        accept_imbalance=_imbalance(cell.accepted_per_worker),
    )


def run_scaling(worker_counts: Sequence[int] = (4, 8, 16, 32),
                case: str = "case3", load: str = "medium",
                duration: float = 3.0, seed: int = 73,
                ) -> List[ScalingPoint]:
    return [_point(n_workers, mode, case, load, duration, seed)
            for n_workers in worker_counts
            for mode in (NotificationMode.EXCLUSIVE,
                         NotificationMode.HERMES)]


def _point_line(p: ScalingPoint) -> str:
    return (f"{p.n_workers:3d} workers {p.mode:10s} "
            f"avg {p.avg_ms:7.3f} ms  p99 {p.p99_ms:8.3f} ms  "
            f"cpuSD {p.cpu_sd * 100:5.2f}%  "
            f"accept imbalance {p.accept_imbalance:.2f}x")


def _cells(seed, overrides):
    counts = tuple(overrides.get("worker_counts", (4, 8, 16, 32)))
    params = {"case": overrides.get("case", "case3"),
              "load": overrides.get("load", "medium"),
              "duration": overrides.get("duration", 3.0)}
    return tuple(
        CellSpec("scaling", f"{n_workers}/{mode.value}",
                 dict(params, n_workers=n_workers, mode=mode.value), seed)
        for n_workers in counts
        for mode in (NotificationMode.EXCLUSIVE, NotificationMode.HERMES))


def _run_cell(cell):
    from dataclasses import asdict
    p = cell.params
    point = _point(p["n_workers"], NotificationMode(p["mode"]), p["case"],
                   p["load"], p["duration"], cell.seed)
    return dict(asdict(point), rendered=_point_line(point))


lined_experiment("scaling", "Mode ordering vs worker count",
                 _cells, _run_cell, default_seed=73,
                 tunables={"worker_counts": "worker counts to sweep "
                                            "(default: 4, 8, 16, 32)",
                           "case": "workload case (default case3)",
                           "load": "load level (default medium)",
                           "duration": "workload duration per cell (s)"})


if __name__ == "__main__":  # pragma: no cover - manual harness
    for p in run_scaling():
        print(_point_line(p))
