"""Table 2 — CPU utilization imbalance within a device and across a region.

The paper samples a 363-device region running epoll exclusive and reports,
for two representative devices and the regional average: the max-min CPU
core utilization spread and max/min/avg core utilization.  We run a
(scaled-down) fleet of exclusive-mode devices with heterogeneous tenant
mixes and report the same statistics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.reporting import render_table
from ..analysis.stats import mean
from ..lb.server import NotificationMode
from ..workloads.cases import build_case_workload
from .common import CellResult, run_spec
from .registry import CellSpec, register, ExperimentSpec

__all__ = ["DeviceImbalance", "run_table2", "render_table2"]

#: Per-device tenant mix: devices cycle through these cases.
_CASE_CYCLE = ("case3", "case1", "case3", "case4")


@dataclass(frozen=True)
class DeviceImbalance:
    device: str
    max_minus_min: float
    max_util: float
    min_util: float
    avg_util: float


def _imbalance(name: str, cpu_utils: Sequence[float]) -> DeviceImbalance:
    return DeviceImbalance(
        device=name,
        max_minus_min=max(cpu_utils) - min(cpu_utils),
        max_util=max(cpu_utils),
        min_util=min(cpu_utils),
        avg_util=mean(cpu_utils),
    )


def _run_device(device_index: int, case: str, intensity: float,
                n_workers: int, duration: float, seed: int,
                mode: NotificationMode) -> DeviceImbalance:
    """One device of the mini-region (one sweep cell)."""
    spec = build_case_workload(
        case, "light", n_workers=n_workers, duration=duration,
        ports=tuple(range(20001, 20001 + 16)))
    spec.conn_rate *= intensity
    spec.name = f"table2-dev{device_index}"
    cell: CellResult = run_spec(mode, spec, n_workers=n_workers,
                                seed=seed, settle=0.5)
    return _imbalance(f"device{device_index}", cell.cpu_utils)


def _device_plan(n_devices: int) -> List[Tuple[str, float]]:
    """(case, intensity) per device: heterogeneous tenant mixes at
    40%..100% of the case's rate."""
    return [(_CASE_CYCLE[i % len(_CASE_CYCLE)],
             0.4 + 0.6 * (i / max(1, n_devices - 1)))
            for i in range(n_devices)]


def run_table2(n_devices: int = 8, n_workers: int = 8,
               duration: float = 3.0, seed: int = 23,
               mode: NotificationMode = NotificationMode.EXCLUSIVE,
               ) -> List[DeviceImbalance]:
    """Simulate a mini-region of exclusive-mode devices.

    Device heterogeneity comes from different tenant mixes: each device
    serves a different blend of the four cases at a different intensity
    (its tenant population), like real devices hosting different ALB
    instances.
    """
    return [
        _run_device(i, case, intensity, n_workers, duration,
                    seed + i, mode)
        for i, (case, intensity) in enumerate(_device_plan(n_devices))]


def region_summary(devices: List[DeviceImbalance]) -> DeviceImbalance:
    """The 'Avg of region' row."""
    return DeviceImbalance(
        device="region-avg",
        max_minus_min=mean([d.max_minus_min for d in devices]),
        max_util=mean([d.max_util for d in devices]),
        min_util=mean([d.min_util for d in devices]),
        avg_util=mean([d.avg_util for d in devices]),
    )


def render_table2(devices: List[DeviceImbalance]) -> str:
    ranked = sorted(devices, key=lambda d: d.max_minus_min, reverse=True)
    rows = []
    shown = ranked[:2] + [region_summary(devices)]
    for d in shown:
        rows.append([d.device, f"{d.max_minus_min * 100:.1f}%",
                     f"{d.max_util * 100:.1f}%", f"{d.min_util * 100:.1f}%",
                     f"{d.avg_util * 100:.1f}%"])
    return render_table(
        ["Device", "max-min CPU", "max", "min", "avg"], rows,
        title="Table 2: CPU utilization imbalance under epoll exclusive "
              "(top-2 devices + region average)")


def _cells(seed: int, overrides: dict) -> Tuple[CellSpec, ...]:
    n_devices = overrides.get("n_devices", 8)
    base = {"n_workers": overrides.get("n_workers", 8),
            "duration": overrides.get("duration", 3.0),
            "mode": overrides.get("mode", NotificationMode.EXCLUSIVE.value)}
    return tuple(
        CellSpec("table2", f"device{i}",
                 dict(base, device_index=i, case=case, intensity=intensity),
                 seed + i)
        for i, (case, intensity) in enumerate(_device_plan(n_devices)))


def _run_cell(cell: CellSpec) -> dict:
    p = cell.params
    device = _run_device(p["device_index"], p["case"], p["intensity"],
                         p["n_workers"], p["duration"], cell.seed,
                         NotificationMode(p["mode"]))
    return asdict(device)


def _merge(cells: Sequence[CellSpec], docs: Sequence[dict]) -> dict:
    devices = [DeviceImbalance(**doc) for doc in docs]
    return {"devices": list(docs), "rendered": render_table2(devices)}


register(ExperimentSpec(
    name="table2", title="CPU imbalance within a device and region",
    cells=_cells, run_cell=_run_cell, merge=_merge,
    render=lambda merged: merged["rendered"], default_seed=23,
    tunables={"n_devices": "devices in the region (default 8)",
              "n_workers": "workers per device",
              "duration": "workload duration per device (s)",
              "mode": "notification mode (default exclusive)"}))


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render_table2(run_table2()))
