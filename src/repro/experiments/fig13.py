"""Fig. 13 — SD of per-worker CPU utilization and #connections, 3 modes.

The paper samples production devices over two days: the SDs of CPU
utilization are 26% / 2.7% / 2.7% for exclusive / reuseport / Hermes, and
the SDs of connection counts are 3200 / 50 / 20.  Reuseport's hashing is
balanced for *new* connections, but varying connection lifetimes leave its
steady-state counts less even than Hermes, which actively prefers
low-connection workers.

We run all three modes on identical long-lived-connection traffic with
heterogeneous lifetimes and sample per-worker CPU and connection counts
periodically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.stats import mean, population_sd
from ..lb.server import LBServer, NotificationMode
from ..sim.engine import Environment
from ..sim.monitor import PeriodicSampler
from ..sim.rng import RngRegistry
from ..workloads.cases import build_case_workload
from ..workloads.generator import TrafficGenerator
from .common import MODES_UNDER_TEST
from .registry import CellSpec, ExperimentSpec, register

__all__ = ["LoadBalanceResult", "run_fig13"]


@dataclass
class LoadBalanceResult:
    #: mode -> average SD of per-worker CPU utilization across samples.
    cpu_sd: Dict[str, float]
    #: mode -> average SD of per-worker connection counts across samples.
    conn_sd: Dict[str, float]
    #: mode -> (time, cpu SD) series.
    cpu_sd_series: Dict[str, List[Tuple[float, float]]]
    #: mode -> (time, conn SD) series.
    conn_sd_series: Dict[str, List[Tuple[float, float]]]


def _run_mode(mode: NotificationMode, n_workers: int, duration: float,
              seed: int) -> Tuple[List[Tuple[float, float]],
                                  List[Tuple[float, float]]]:
    env = Environment()
    registry = RngRegistry(seed)
    server = LBServer(env, n_workers=n_workers, ports=[443], mode=mode,
                      hash_seed=registry.stream("hash").randrange(2 ** 32))
    server.start()
    spec = build_case_workload("case3", "medium", n_workers=n_workers,
                               duration=duration, ports=(443,))
    # Mix in heterogeneous request counts so connection lifetimes vary —
    # what makes reuseport's steady-state counts drift apart.
    gen = TrafficGenerator(env, server, registry.stream("traffic"), spec)
    gen.start()

    cpu_series: List[Tuple[float, float]] = []
    conn_series: List[Tuple[float, float]] = []
    window_start = [0.0]
    busy_at_start = [[0.0] * n_workers]

    def sample():
        now = env.now
        window = now - window_start[0]
        if window <= 0:
            return 0.0
        utils = []
        for i, worker in enumerate(server.workers):
            busy = worker.metrics.cpu.busy_time()
            utils.append((busy - busy_at_start[0][i]) / window)
            busy_at_start[0][i] = busy
        window_start[0] = now
        cpu_series.append((now, population_sd(utils)))
        conn_series.append(
            (now, population_sd([float(len(w.conns))
                                 for w in server.workers])))
        return 0.0

    PeriodicSampler(env, duration / 40, sample, name="fig13")
    env.run(until=duration + 0.5)
    return cpu_series, conn_series


def run_fig13(n_workers: int = 8, duration: float = 8.0,
              seed: int = 47) -> LoadBalanceResult:
    cpu_sd, conn_sd = {}, {}
    cpu_series, conn_series = {}, {}
    for mode in MODES_UNDER_TEST:
        cpu, conns = _run_mode(mode, n_workers, duration, seed)
        # Skip the warm-up third of the run.
        skip = len(cpu) // 3
        cpu_sd[mode.value] = mean([v for _, v in cpu[skip:]])
        conn_sd[mode.value] = mean([v for _, v in conns[skip:]])
        cpu_series[mode.value] = cpu
        conn_series[mode.value] = conns
    return LoadBalanceResult(cpu_sd=cpu_sd, conn_sd=conn_sd,
                             cpu_sd_series=cpu_series,
                             conn_sd_series=conn_series)


def _cells(seed, overrides):
    params = {"n_workers": overrides.get("n_workers", 8),
              "duration": overrides.get("duration", 8.0)}
    return tuple(
        CellSpec("fig13", mode.value, dict(params, mode=mode.value), seed)
        for mode in MODES_UNDER_TEST)


def _run_cell(cell):
    p = cell.params
    cpu, conns = _run_mode(NotificationMode(p["mode"]), p["n_workers"],
                           p["duration"], cell.seed)
    return {"cpu_series": cpu, "conn_series": conns}


def _merge(cells, docs):
    cpu_sd, conn_sd = {}, {}
    lines = []
    for cell, doc in zip(cells, docs):
        cpu = doc["cpu_series"]
        conns = doc["conn_series"]
        skip = len(cpu) // 3
        cpu_sd[cell.key] = mean([v for _, v in cpu[skip:]])
        conn_sd[cell.key] = mean([v for _, v in conns[skip:]])
        lines.append(f"{cell.key:12s} cpu SD {cpu_sd[cell.key] * 100:6.2f}%"
                     f"   conn SD {conn_sd[cell.key]:8.2f}")
    return {"cpu_sd": cpu_sd, "conn_sd": conn_sd,
            "cells": {cell.key: doc for cell, doc in zip(cells, docs)},
            "rendered": "\n".join(lines)}


register(ExperimentSpec(
    name="fig13", title="Per-worker CPU/connection SD across modes",
    cells=_cells, run_cell=_run_cell, merge=_merge,
    render=lambda merged: merged["rendered"], default_seed=47,
    tunables={"n_workers": "workers behind the device",
              "duration": "workload duration (s)"}))


if __name__ == "__main__":  # pragma: no cover - manual harness
    result = run_fig13()
    for mode in result.cpu_sd:
        print(f"{mode:12s} cpu SD {result.cpu_sd[mode] * 100:6.2f}%   "
              f"conn SD {result.conn_sd[mode]:8.2f}")
