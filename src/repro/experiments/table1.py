"""Table 1 — request size and processing-time distributions per region.

Validates that the fitted region samplers reproduce the published
P50/P90/P99 knots: we draw a large sample from each region profile and
report the measured quantiles next to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Tuple

from ..analysis.reporting import render_table
from ..analysis.stats import percentile
from ..sim.rng import RngRegistry
from ..workloads.regions import REGIONS
from .registry import simple_experiment

__all__ = ["Table1Row", "run_table1", "render_table1"]


@dataclass(frozen=True)
class Table1Row:
    region: str
    #: Measured (P50, P90, P99) of sampled request sizes (bytes).
    size_measured: Tuple[float, float, float]
    size_paper: Tuple[float, float, float]
    #: Measured (P50, P90, P99) of sampled processing times (ms).
    time_measured: Tuple[float, float, float]
    time_paper: Tuple[float, float, float]

    def max_relative_error(self) -> float:
        errors = []
        for measured, expected in zip(
                self.size_measured + self.time_measured,
                self.size_paper + self.time_paper):
            errors.append(abs(measured - expected) / expected)
        return max(errors)


def run_table1(n_samples: int = 40000, seed: int = 5) -> List[Table1Row]:
    registry = RngRegistry(seed)
    rows = []
    for name, profile in REGIONS.items():
        rng = registry.stream(f"table1:{name}")
        size_sampler = profile.size_sampler()
        time_sampler = profile.time_sampler()
        sizes = [size_sampler.sample(rng) for _ in range(n_samples)]
        times = [time_sampler.sample(rng) * 1e3 for _ in range(n_samples)]
        rows.append(Table1Row(
            region=name,
            size_measured=tuple(percentile(sizes, p) for p in (50, 90, 99)),
            size_paper=profile.size_quantiles,
            time_measured=tuple(percentile(times, p) for p in (50, 90, 99)),
            time_paper=tuple(q * 1e3 for q in profile.time_quantiles),
        ))
    return rows


def render_table1(rows: List[Table1Row]) -> str:
    headers = ["Region", "size P50", "P90", "P99 (paper P50/P90/P99)",
               "time P50ms", "P90", "P99 (paper)"]
    table_rows = []
    for row in rows:
        table_rows.append([
            row.region,
            f"{row.size_measured[0]:.0f}",
            f"{row.size_measured[1]:.0f}",
            f"{row.size_measured[2]:.0f} ({row.size_paper[0]:.0f}/"
            f"{row.size_paper[1]:.0f}/{row.size_paper[2]:.0f})",
            f"{row.time_measured[0]:.1f}",
            f"{row.time_measured[1]:.1f}",
            f"{row.time_measured[2]:.1f} ({row.time_paper[0]:.0f}/"
            f"{row.time_paper[1]:.0f}/{row.time_paper[2]:.0f})",
        ])
    return render_table(headers, table_rows,
                        title="Table 1: region request size / processing "
                              "time quantiles (measured vs paper)")


def _runner(seed: int, params: dict) -> dict:
    rows = run_table1(n_samples=params.get("n_samples", 40000), seed=seed)
    return {"rows": [asdict(row) for row in rows],
            "rendered": render_table1(rows)}


simple_experiment(
    "table1", "Region size/time quantiles (measured vs paper)",
    _runner, default_seed=5,
    tunables={"n_samples": "requests sampled per region (default 40000)"})


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render_table1(run_table1()))
