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

from typing import List, Tuple

from ..analysis.stats import mean, population_sd
from ..cell import build_cell
from ..lb.server import NotificationMode
from ..sim.monitor import PeriodicSampler
from ..workloads.cases import build_case_workload
from .common import MODES_UNDER_TEST
from .registry import CellSpec, ExperimentSpec, check_claims, register

__all__: list = []


def _run_mode(mode: NotificationMode, n_workers: int, duration: float,
              seed: int) -> Tuple[List[Tuple[float, float]],
                                  List[Tuple[float, float]]]:
    # Mix in heterogeneous request counts so connection lifetimes vary —
    # what makes reuseport's steady-state counts drift apart.
    spec = build_case_workload("case3", "medium", n_workers=n_workers,
                               duration=duration, ports=(443,))
    cell = build_cell(spec, mode, seed, n_workers=n_workers)
    env, server = cell.env, cell.server

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
    cell.run(until=duration + 0.5)
    return cpu_series, conn_series


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


def _claims(merged):
    table = {mode: {"cpu": merged["cpu_sd"][mode],
                    "conn": merged["conn_sd"][mode]}
             for mode in merged["cpu_sd"]}

    def above(metric, factor):
        return lambda ex, reuse: (
            ex[metric] > factor * reuse[metric],
            f"{metric} SD exclusive {ex[metric]:.4g} vs reuseport "
            f"{reuse[metric]:.4g}")

    return check_claims(table, (
        ("exclusive_cpu_sd_over_3x_reuseport", ["exclusive", "reuseport"],
         above("cpu", 3)),
        ("hermes_cpu_sd_within_1.1x_reuseport", ["hermes", "reuseport"],
         lambda hermes, reuse: (hermes["cpu"] <= 1.1 * reuse["cpu"],
                                f"cpu SD hermes {hermes['cpu']:.4g} vs "
                                f"reuseport {reuse['cpu']:.4g}")),
        ("exclusive_conn_sd_over_3x_reuseport", ["exclusive", "reuseport"],
         above("conn", 3)),
        ("hermes_conn_sd_below_reuseport", ["hermes", "reuseport"],
         lambda hermes, reuse: (hermes["conn"] < reuse["conn"],
                                f"conn SD hermes {hermes['conn']:.4g} vs "
                                f"reuseport {reuse['conn']:.4g}")),
    ))


register(ExperimentSpec(
    name="fig13", title="Per-worker CPU/connection SD across modes",
    cells=_cells, run_cell=_run_cell, merge=_merge,
    render=lambda merged: merged["rendered"], default_seed=47,
    claims=_claims,
    tunables={"n_workers": "workers behind the device",
              "duration": "workload duration (s)"}))
