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
from .registry import CellSpec, Claim, ExperimentSpec, check_claims, register

__all__ = ["OverheadRow", "render_table5"]

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


def _grows(component: str):
    """Rule: ``component``'s overhead is higher at heavy than light load."""
    attr = f"{component}_pct"

    def check(light: OverheadRow, heavy: OverheadRow):
        low, high = getattr(light, attr), getattr(heavy, attr)
        return high > low, f"light {low:.3f}% -> heavy {high:.3f}%"
    return f"{component}_overhead_grows_with_load", ["light", "heavy"], check


def _claims(merged: dict) -> Tuple[Claim, ...]:
    rows = [OverheadRow(**doc) for doc in merged["rows"]]
    total = max(row.total_pct for row in rows)
    dispatcher = [round(row.dispatcher_pct, 3) for row in rows]
    others = [round(min(row.counter_pct, row.scheduler_pct,
                        row.syscall_pct), 3) for row in rows]
    userspace = [round(row.counter_pct + row.scheduler_pct
                       + row.syscall_pct, 3) for row in rows]
    claims = (
        Claim("total_overhead_below_3pct", total < 3.0,
              f"worst load {total:.3f}%"),
        Claim("dispatcher_is_the_lightest_component",
              all(row.dispatcher_pct <= min(row.counter_pct,
                                            row.scheduler_pct,
                                            row.syscall_pct)
                  for row in rows),
              f"dispatcher {dispatcher}% vs lightest other {others}%"),
        Claim("userspace_side_outweighs_the_kernel_side",
              all(row.counter_pct + row.scheduler_pct + row.syscall_pct
                  > row.dispatcher_pct for row in rows),
              f"userspace {userspace}% vs dispatcher {dispatcher}%"),
    )
    return claims + check_claims({row.load: row for row in rows},
                                 [_grows("counter"), _grows("dispatcher")])


register(ExperimentSpec(
    name="table5", title="CPU overhead of Hermes components",
    cells=_cells, run_cell=_run_cell, merge=_merge,
    render=lambda merged: merged["rendered"], default_seed=53,
    claims=_claims,
    tunables={"loads": "load subset (default: light, medium, heavy)",
              "n_workers": "workers behind the device",
              "duration": "workload duration (s)",
              "case": "workload case (default case1)"}))
