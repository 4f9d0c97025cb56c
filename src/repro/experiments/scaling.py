"""Worker-count scaling: do the Table-3 gaps persist at the paper's size?

The evaluation devices are 32-core VMs; most of this repo's benches use 8
simulated workers for wall-clock economy.  This sweep re-runs a Table-3
cell at 4/8/16/32 workers and checks that the mode ordering — and
exclusive's concentration — are scale-invariant, so the scaled-down
benches speak for the paper-sized configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..lb.server import NotificationMode
from .common import CellResult, run_case_cell
from .registry import CellSpec, check_claims, lined_experiment

__all__ = ["ScalingPoint", "WORKER_COUNTS"]

#: Worker counts the grid sweeps by default, up to the paper's 32 cores.
WORKER_COUNTS = (4, 8, 16, 32)


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


def _point_line(p: ScalingPoint) -> str:
    return (f"{p.n_workers:3d} workers {p.mode:10s} "
            f"avg {p.avg_ms:7.3f} ms  p99 {p.p99_ms:8.3f} ms  "
            f"cpuSD {p.cpu_sd * 100:5.2f}%  "
            f"accept imbalance {p.accept_imbalance:.2f}x")


def _cells(seed, overrides):
    counts = tuple(overrides.get("worker_counts", WORKER_COUNTS))
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


def _hermes_wins(n: int):
    """Rule: at ``n`` workers Hermes beats exclusive on latency and
    CPU balance."""
    def check(hermes, excl):
        return (hermes["avg_ms"] < excl["avg_ms"]
                and hermes["cpu_sd"] < excl["cpu_sd"],
                f"avg {hermes['avg_ms']:.3f} vs {excl['avg_ms']:.3f} ms, "
                f"cpu SD {hermes['cpu_sd']:.2%} vs {excl['cpu_sd']:.2%}")
    return (f"{n}_workers_hermes_beats_exclusive",
            [f"{n}/hermes", f"{n}/exclusive"], check)


def _claims(merged):
    smallest, largest = WORKER_COUNTS[0], WORKER_COUNTS[-1]
    hermes = [f"{n}/hermes" for n in WORKER_COUNTS]
    return check_claims(merged["cells"], [
        _hermes_wins(n) for n in WORKER_COUNTS] + [
        ("hermes_latency_flat_across_scale", hermes,
         lambda *docs: (max(d["avg_ms"] for d in docs)
                        < 2 * min(d["avg_ms"] for d in docs),
                        f"avg {[round(d['avg_ms'], 3) for d in docs]} ms")),
        ("exclusive_worsens_with_core_count",
         [f"{smallest}/exclusive", f"{largest}/exclusive"],
         lambda small, large: (
             large["avg_ms"] > 3 * small["avg_ms"]
             and large["accept_imbalance"] > small["accept_imbalance"],
             f"avg {small['avg_ms']:.3f} -> {large['avg_ms']:.3f} ms, "
             f"accept imbalance {small['accept_imbalance']:.2f}x -> "
             f"{large['accept_imbalance']:.2f}x")),
        (f"hermes_gap_over_5x_at_{largest}_workers",
         [f"{largest}/exclusive", f"{largest}/hermes"],
         lambda excl, herm: (excl["avg_ms"] > 5 * herm["avg_ms"],
                             f"avg exclusive {excl['avg_ms']:.3f} vs "
                             f"hermes {herm['avg_ms']:.3f} ms")),
    ])


lined_experiment("scaling", "Mode ordering vs worker count",
                 _cells, _run_cell, default_seed=73, claims=_claims,
                 tunables={"worker_counts": "worker counts to sweep "
                                            "(default: 4, 8, 16, 32)",
                           "case": "workload case (default case3)",
                           "load": "load level (default medium)",
                           "duration": "workload duration per cell (s)"})
