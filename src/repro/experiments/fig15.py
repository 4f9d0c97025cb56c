"""Fig. 15 — selecting the coarse-filter offset θ.

θ/Avg too small ⇒ few workers pass the coarse filter ⇒ new connections
concentrate (and the kernel falls back to hashing more often); too large
⇒ busy workers get selected and delay new connections.  The paper finds
θ/Avg = 0.5 the sweet spot for both average P99 latency and throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.config import HermesConfig
from ..lb.server import NotificationMode
from ..workloads.cases import build_case_workload
from .common import run_spec
from .registry import CellSpec, Claim, ExperimentSpec, check_claims, register

__all__ = ["ThetaPoint", "best_theta", "THETA_RATIOS"]

#: The θ/Avg ratios the grid sweeps by default.
THETA_RATIOS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class ThetaPoint:
    theta_ratio: float
    avg_ms: float
    p99_ms: float
    throughput_rps: float
    pass_ratio: float


def _run_one(ratio: float, case: str, load: str, n_workers: int,
             duration: float, seed: int) -> dict:
    """One (θ, seed) measurement — the unit of sweep parallelism."""
    config = HermesConfig(theta_ratio=ratio)
    spec = build_case_workload(case, load, n_workers=n_workers,
                               duration=duration)
    spec.name = f"fig15-theta{ratio}"
    result = run_spec(NotificationMode.HERMES, spec,
                      n_workers=n_workers, seed=seed, config=config,
                      settle=1.0, keep_server=True)
    server = result.server
    ratios = [r for g in server.groups
              for r in g.scheduler.pass_ratios.values]
    return {
        "avg_ms": result.avg_ms,
        "p99_ms": result.p99_ms,
        "throughput_rps": result.throughput_rps,
        "pass_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
    }


def _average_point(ratio: float, samples: Sequence[dict]) -> ThetaPoint:
    n = len(samples)
    return ThetaPoint(
        theta_ratio=ratio,
        avg_ms=sum(s["avg_ms"] for s in samples) / n,
        p99_ms=sum(s["p99_ms"] for s in samples) / n,
        throughput_rps=sum(s["throughput_rps"] for s in samples) / n,
        pass_ratio=sum(s["pass_ratio"] for s in samples) / n,
    )


def best_theta(points: List[ThetaPoint]) -> float:
    """The ratio minimizing P99 (ties broken by throughput)."""
    return min(points, key=lambda p: (p.p99_ms, -p.throughput_rps)
               ).theta_ratio


def _point_line(p: ThetaPoint) -> str:
    return (f"theta/avg {p.theta_ratio:4.2f}: avg {p.avg_ms:8.2f} ms  "
            f"p99 {p.p99_ms:9.2f} ms  thr {p.throughput_rps:8.0f}  "
            f"pass {p.pass_ratio * 100:5.1f}%")


def _cells(seed, overrides):
    ratios = tuple(overrides.get("theta_ratios", THETA_RATIOS))
    n_seeds = int(overrides.get("n_seeds", 3))
    params = {"n_workers": overrides.get("n_workers", 8),
              "duration": overrides.get("duration", 4.0),
              "case": overrides.get("case", "case4"),
              "load": overrides.get("load", "medium")}
    return tuple(
        CellSpec("fig15", f"theta{ratio}/seed{offset}",
                 dict(params, theta_ratio=ratio), seed + offset)
        for ratio in ratios for offset in range(n_seeds))


def _run_cell(cell):
    p = cell.params
    return _run_one(p["theta_ratio"], p["case"], p["load"],
                    p["n_workers"], p["duration"], cell.seed)


def _merge(cells, docs):
    grouped: dict = {}
    order: List[float] = []
    for cell, doc in zip(cells, docs):
        ratio = cell.params["theta_ratio"]
        if ratio not in grouped:
            grouped[ratio] = []
            order.append(ratio)
        grouped[ratio].append(doc)
    points = [_average_point(ratio, grouped[ratio]) for ratio in order]
    lines = [_point_line(p) for p in points]
    lines.append(f"best theta/avg: {best_theta(points)}")
    from dataclasses import asdict
    return {"points": [asdict(p) for p in points],
            "best_theta": best_theta(points),
            "rendered": "\n".join(lines)}


def _claims(merged):
    points = {point["theta_ratio"]: point for point in merged["points"]}
    ratios = sorted(points)
    passes = [points[ratio]["pass_ratio"] for ratio in ratios]
    claims = ()
    if len(ratios) > 1:
        claims = (Claim("pass_ratio_rises_with_theta",
                        passes == sorted(passes),
                        f"pass ratios {[round(p, 3) for p in passes]} over "
                        f"theta/avg {ratios}"),)
    return claims + check_claims(points, (
        ("huge_theta_tail_worse_than_moderate", [4.0, 0.25, 0.5],
         lambda huge, quarter, half: (
             huge["p99_ms"] > min(quarter["p99_ms"], half["p99_ms"]),
             f"p99 at 4.0 {huge['p99_ms']:.2f} ms vs best of 0.25/0.5 "
             f"{min(quarter['p99_ms'], half['p99_ms']):.2f} ms")),
        ("best_theta_near_paper_0.5", list(THETA_RATIOS),
         lambda *_: (merged["best_theta"] in (0.25, 0.5, 1.0),
                     f"best theta/avg {merged['best_theta']} in "
                     f"(0.25, 0.5, 1.0)")),
    ))


register(ExperimentSpec(
    name="fig15", title="Coarse-filter offset θ selection",
    cells=_cells, run_cell=_run_cell, merge=_merge,
    render=lambda merged: merged["rendered"], default_seed=61,
    claims=_claims,
    tunables={"theta_ratios": "theta/avg ratios to sweep",
              "n_seeds": "seeds averaged per ratio (default 3)",
              "n_workers": "workers behind the device",
              "duration": "workload duration per cell (s)",
              "case": "workload case (default case4)",
              "load": "load level (default medium)"}))
