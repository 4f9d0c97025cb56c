"""Fig. 12 — normalized unit cost of cloud infra before/after Hermes.

Eliminating hung workers let the safety threshold rise from 30% to 40%
CPU, so the same traffic needs fewer VMs.  Unit cost (= total infra cost /
total traffic, normalized) falls month by month as the fleet converts,
with a peak reduction of 18.9%.

Traffic grows over the year (the paper cannot show absolute cost reduction
because traffic kept rising — unit cost is the honest metric).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.stats import normalize
from ..cluster.autoscale import AutoscaleModel, unit_cost_series
from .registry import simple_experiment

__all__ = ["UnitCostResult", "run_fig12"]


@dataclass
class UnitCostResult:
    #: (month, normalized unit cost).
    series: List[Tuple[int, float]]
    peak_reduction: float
    devices_before: int
    devices_after: int


def run_fig12(months: int = 12, rollout_start: int = 2,
              rollout_months: int = 6,
              monthly_traffic_growth: float = 0.04,
              base_traffic: float = 1000.0,
              fixed_share: float = 0.25) -> UnitCostResult:
    model = AutoscaleModel(fixed_share=fixed_share)
    traffic = [base_traffic * (1 + monthly_traffic_growth) ** m
               for m in range(months)]
    fractions = []
    for m in range(months):
        if m < rollout_start:
            fractions.append(0.0)
        else:
            fractions.append(min(1.0, (m - rollout_start + 1)
                                 / rollout_months))
    points = unit_cost_series(model, traffic, fractions)
    normalized = normalize([p.unit_cost for p in points])
    series = [(p.month, u) for p, u in zip(points, normalized)]
    peak_reduction = 1.0 - min(normalized)
    return UnitCostResult(
        series=series,
        peak_reduction=peak_reduction,
        devices_before=points[0].devices,
        devices_after=points[-1].devices,
    )


def _rendered(result: UnitCostResult) -> str:
    lines = [f"month {month:2d}: unit cost {cost:.3f}"
             for month, cost in result.series]
    lines.append(f"peak reduction: {result.peak_reduction * 100:.1f}% "
                 f"(paper: 18.9%)")
    return "\n".join(lines)


def _runner(seed: int, params: dict) -> dict:
    from dataclasses import asdict
    result = run_fig12(
        months=params.get("months", 12),
        rollout_start=params.get("rollout_start", 2),
        rollout_months=params.get("rollout_months", 6))
    return dict(asdict(result), rendered=_rendered(result))


simple_experiment("fig12", "Normalized unit cost of the fleet (analytic)",
                  _runner, default_seed=0,
                  tunables={"months": "months in the series",
                            "rollout_start": "month the rollout begins",
                            "rollout_months": "months the rollout takes"})


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(_rendered(run_fig12()))
