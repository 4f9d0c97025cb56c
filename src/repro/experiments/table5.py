"""Table 5 — CPU overhead of Hermes components under three loads.

The paper's perf-flame-graph measurement: Counter (atomic shm updates),
Scheduler (filter arithmetic), System call (eBPF map updates), and
Dispatcher (the in-kernel program) — 0.674% to 2.436% total, dominated by
the userspace side, with the counter growing with connection volume and
the dispatcher staying tiny.

We run a Hermes device under the light/medium/heavy mix, collect actual
operation counts from every component, and convert them to utilization
with the configured cost model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Sequence, Tuple

from ..analysis.reporting import render_table
from ..core.overhead import ComponentOverhead, compute_overhead
from ..lb.server import NotificationMode
from ..workloads.cases import build_case_workload
from .common import run_spec
from .registry import CellSpec, ExperimentSpec, register

__all__ = ["OverheadRow", "run_table5", "render_table5"]

_LOADS = ("light", "medium", "heavy")


@dataclass(frozen=True)
class OverheadRow:
    load: str
    counter_pct: float
    scheduler_pct: float
    syscall_pct: float
    dispatcher_pct: float

    @property
    def total_pct(self) -> float:
        return (self.counter_pct + self.scheduler_pct
                + self.syscall_pct + self.dispatcher_pct)


def _run_load(load: str, n_workers: int, duration: float, seed: int,
              case: str) -> OverheadRow:
    """One load point of the overhead table (one sweep cell)."""
    spec = build_case_workload(case, load, n_workers=n_workers,
                               duration=duration)
    result = run_spec(NotificationMode.HERMES, spec,
                      n_workers=n_workers, seed=seed, settle=0.5,
                      keep_server=True)
    server = result.server
    elapsed = server.metrics.elapsed
    groups = server.groups
    overhead: ComponentOverhead = compute_overhead(
        wsts=[g.wst for g in groups],
        schedulers=[g.scheduler for g in groups],
        sel_maps=[g.sel_map for g in groups],
        programs=[g.program for g in groups],
        elapsed=elapsed, n_cores=n_workers,
        costs=server.config.costs)
    pct = overhead.as_percentages()
    return OverheadRow(
        load=load,
        counter_pct=pct["counter"],
        scheduler_pct=pct["scheduler"],
        syscall_pct=pct["syscall"],
        dispatcher_pct=pct["dispatcher"],
    )


def run_table5(n_workers: int = 8, duration: float = 3.0,
               seed: int = 53, case: str = "case1") -> List[OverheadRow]:
    return [_run_load(load, n_workers, duration, seed, case)
            for load in _LOADS]


def render_table5(rows: List[OverheadRow]) -> str:
    table_rows = []
    for row in rows:
        table_rows.append([
            row.load.capitalize(),
            f"{row.counter_pct:.3f}%",
            f"{row.scheduler_pct:.3f}%",
            f"{row.syscall_pct:.3f}%",
            f"{row.dispatcher_pct:.3f}%",
            f"{row.total_pct:.3f}%",
        ])
    return render_table(
        ["Load", "Counter", "Scheduler", "System call", "Dispatcher",
         "Total"],
        table_rows,
        title="Table 5: CPU overhead of Hermes components")


def _cells(seed: int, overrides: dict) -> Tuple[CellSpec, ...]:
    loads = tuple(overrides.get("loads", _LOADS))
    params = {"n_workers": overrides.get("n_workers", 8),
              "duration": overrides.get("duration", 3.0),
              "case": overrides.get("case", "case1")}
    return tuple(CellSpec("table5", load, dict(params, load=load), seed)
                 for load in loads)


def _run_cell(cell: CellSpec) -> dict:
    p = cell.params
    row = _run_load(p["load"], p["n_workers"], p["duration"], cell.seed,
                    p["case"])
    return asdict(row)


def _merge(cells: Sequence[CellSpec], docs: Sequence[dict]) -> dict:
    rows = [OverheadRow(**doc) for doc in docs]
    return {"rows": list(docs), "rendered": render_table5(rows)}


register(ExperimentSpec(
    name="table5", title="CPU overhead of Hermes components",
    cells=_cells, run_cell=_run_cell, merge=_merge,
    render=lambda merged: merged["rendered"], default_seed=53,
    tunables={"loads": "load subset (default: light, medium, heavy)",
              "n_workers": "workers behind the device",
              "duration": "workload duration (s)",
              "case": "workload case (default case1)"}))


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render_table5(run_table5()))
