"""Fig. 14 — coarse-filter pass ratio and scheduler call frequency vs load.

As workload rises, more workers are busy, so fewer pass the coarse filter;
meanwhile ``epoll_wait`` returns faster, so every worker's loop — and its
embedded scheduler — runs more often.  The paper measures the pass ratio
falling and the scheduling frequency rising to ~20k/s under heavy load, a
self-stabilizing property (more load ⇒ fresher scheduling decisions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..lb.server import NotificationMode
from ..workloads.cases import build_case_workload
from .common import run_spec
from .registry import CellSpec, ExperimentSpec, check_claims, register

__all__ = ["FilterFrequencyPoint"]

#: The load multipliers the grid sweeps by default.
LOAD_FRACTIONS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)



@dataclass(frozen=True)
class FilterFrequencyPoint:
    load_fraction: float
    #: Mean ratio of workers passing the coarse filter.
    pass_ratio: float
    #: Scheduler invocations per second (device-wide).
    scheduler_calls_per_sec: float
    #: Fraction of runs whose bitmap fell below min_workers (fallbacks).
    empty_ratio: float


def _run_point(case: str, multiplier: float, n_workers: int,
               duration: float, seed: int) -> FilterFrequencyPoint:
    spec = build_case_workload(case, "light", n_workers=n_workers,
                               duration=duration)
    spec.conn_rate *= multiplier
    spec.name = f"fig14-x{multiplier}"
    result = run_spec(NotificationMode.HERMES, spec,
                      n_workers=n_workers, seed=seed, settle=0.3,
                      keep_server=True)
    server = result.server
    elapsed = server.metrics.elapsed
    total_calls = sum(g.scheduler.calls for g in server.groups)
    ratios = [r for g in server.groups
              for r in g.scheduler.pass_ratios.values]
    empties = sum(g.scheduler.empty_results for g in server.groups)
    return FilterFrequencyPoint(
        load_fraction=multiplier,
        pass_ratio=sum(ratios) / len(ratios) if ratios else 0.0,
        scheduler_calls_per_sec=total_calls / elapsed,
        empty_ratio=empties / total_calls if total_calls else 0.0,
    )


def _point_line(p: FilterFrequencyPoint) -> str:
    return (f"load x{p.load_fraction:3.1f}: pass ratio "
            f"{p.pass_ratio * 100:5.1f}%  scheduler "
            f"{p.scheduler_calls_per_sec / 1e3:6.2f} k/s  "
            f"empty {p.empty_ratio * 100:4.1f}%")


def _cells(seed, overrides):
    cases = tuple(overrides.get("cases", ("case2", "case1")))
    fractions = tuple(overrides.get("load_fractions", LOAD_FRACTIONS))
    params = {"n_workers": overrides.get("n_workers", 8),
              "duration": overrides.get("duration", 3.0)}
    return tuple(
        CellSpec("fig14", f"{case}/x{multiplier}",
                 dict(params, case=case, multiplier=multiplier), seed)
        for case in cases for multiplier in fractions)


def _run_cell(cell):
    p = cell.params
    from dataclasses import asdict
    point = _run_point(p["case"], p["multiplier"], p["n_workers"],
                       p["duration"], cell.seed)
    return dict(asdict(point), rendered=_point_line(point))


def _merge(cells, docs):
    lines: List[str] = []
    current_case = None
    for cell, doc in zip(cells, docs):
        case = cell.params["case"]
        if case != current_case:
            lines.append(f"-- {case} --")
            current_case = case
        lines.append(doc["rendered"])
    return {"cells": {cell.key: doc for cell, doc in zip(cells, docs)},
            "rendered": "\n".join(lines)}


def _peak_rate(points) -> float:
    return max(point["scheduler_calls_per_sec"] for point in points)


def _claims(merged):
    lightest, heaviest = LOAD_FRACTIONS[0], LOAD_FRACTIONS[-1]
    case1 = [f"case1/x{fraction}" for fraction in LOAD_FRACTIONS]
    return check_claims(merged["cells"], (
        ("case2_pass_ratio_falls_with_load",
         [f"case2/x{lightest}", f"case2/x{heaviest}"],
         lambda low, high: (high["pass_ratio"] < low["pass_ratio"] - 0.05,
                            f"pass ratio x{lightest} {low['pass_ratio']:.1%}"
                            f" -> x{heaviest} {high['pass_ratio']:.1%}")),
        ("case1_scheduler_rate_rises_over_1.5x_with_load",
         [f"case1/x{lightest}", f"case1/x{heaviest}"],
         lambda low, high: (high["scheduler_calls_per_sec"]
                            > 1.5 * low["scheduler_calls_per_sec"],
                            f"x{lightest} "
                            f"{low['scheduler_calls_per_sec']:,.0f}/s -> "
                            f"x{heaviest} "
                            f"{high['scheduler_calls_per_sec']:,.0f}/s")),
        ("case1_scheduler_rate_reaches_15k_per_s", case1,
         lambda *points: (_peak_rate(points) > 15e3,
                          f"peak {_peak_rate(points):,.0f}/s")),
    ))


register(ExperimentSpec(
    name="fig14", title="Coarse-filter pass ratio / scheduler rate vs load",
    cells=_cells, run_cell=_run_cell, merge=_merge,
    render=lambda merged: merged["rendered"], default_seed=59,
    claims=_claims,
    tunables={"cases": "workload cases (default: case2, case1)",
              "load_fractions": "load multipliers to sweep",
              "n_workers": "workers behind the device",
              "duration": "workload duration per point (s)"}))
