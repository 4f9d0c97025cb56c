"""Prequal ablation: probe-pool tunables under load spikes.

The cell harness drives a PREQUAL device with steady traffic plus short
connection spikes (several× the base rate for a few tens of milliseconds)
— the regime the Prequal paper targets.  During a spike, a pooled probe
reply can report a *low* latency (the probe was served before the queue
built) next to a *high* RIF (read at reply time, after the queue built):
requests-in-flight leads, estimated latency lags.  Pure latency picking
trusts the stale signal and keeps feeding the spiked worker; the hot/cold
lane rule ejects it from consideration as soon as its RIF crosses the hot
quantile.  The ablation reproduces that qualitative result — ``hcl``
beats ``latency`` beats ``rif`` on p99 at the registered seed — and
sweeps each tunable (d, pool size, staleness bound, hot quantile) one
axis at a time around the paper-default operating point.

Cells are independent and fully determined by ``(key, params, seed)``,
so the grid sweeps and memoizes like every other experiment.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..cell import build_cell
from ..lb.server import NotificationMode
from ..prequal import PrequalConfig, config_from_overrides
from ..workloads.distributions import FixedFactory
from ..workloads.generator import TrafficGenerator, WorkloadSpec
from .registry import CellSpec, check_claims, lined_experiment

__all__ = ["run_prequal_cell", "BASE_WORKLOAD", "BASE_CONFIG", "VARIANTS"]

#: The spike workload every cell runs: steady base traffic with three
#: short bursts.  Spike rate is ~7× base so a burst momentarily outruns
#: the device, which is exactly when the lead/lag asymmetry between RIF
#: and estimated latency separates the policies.
BASE_WORKLOAD: Dict[str, Any] = {
    "n_workers": 8,
    "base_rate": 800.0,
    "duration": 3.0,
    "settle": 1.0,
    "service_s": 600e-6,
    "requests_per_conn": 4,
    "request_gap_mean": 0.02,
    "spike_rate": 6000.0,
    "spike_width": 0.05,
    "spike_times": (0.8, 1.6, 2.4),
}

#: Config deltas from :class:`PrequalConfig` defaults shared by every
#: cell.  A small reuse budget above 1 keeps the pool deep enough through
#: a spike that selection (not the hash fallback) stays in charge.
BASE_CONFIG: Dict[str, Any] = {"reuse_budget": 3}

#: The grid: the three policies head-to-head, then one-axis-at-a-time
#: sweeps of each pool tunable around the base operating point.
VARIANTS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("policy/hcl", {}),
    ("policy/latency", {"policy": "latency"}),
    ("policy/rif", {"policy": "rif"}),
    ("d/1", {"d": 1}),
    ("d/6", {"d": 6}),
    ("pool/4", {"pool_size": 4}),
    ("pool/64", {"pool_size": 64}),
    ("age/0.1", {"max_age": 0.1}),
    ("age/1.6", {"max_age": 1.6}),
    ("q/0.5", {"q_hot": 0.5}),
    ("q/0.95", {"q_hot": 0.95}),
)


def run_prequal_cell(seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
    """One ablation cell: a fresh PREQUAL device under the spike workload."""
    workload = dict(BASE_WORKLOAD)
    workload.update({k: params[k] for k in BASE_WORKLOAD if k in params})
    config = config_from_overrides(
        {**BASE_CONFIG, **params.get("config", {})})

    duration = workload["duration"]
    factory = FixedFactory((workload["service_s"],))
    base = WorkloadSpec(
        name="prequal_base", conn_rate=workload["base_rate"],
        duration=duration, factory=factory, ports=(443,),
        requests_per_conn=workload["requests_per_conn"],
        request_gap_mean=workload["request_gap_mean"])
    cell = build_cell(base, NotificationMode.PREQUAL, seed,
                      n_workers=workload["n_workers"],
                      hash_stream="hash-seed", prequal_config=config)
    env, server = cell.env, cell.server
    for index, start in enumerate(workload["spike_times"]):
        spike = WorkloadSpec(
            name=f"prequal_spike{index}", conn_rate=workload["spike_rate"],
            duration=start + workload["spike_width"], factory=factory,
            ports=(443,), requests_per_conn=2)
        gen = TrafficGenerator(env, server,
                               cell.registry.stream(f"spike{index}"), spike)
        env.schedule_callback(start, gen.start)
    cell.run(until=duration + workload["settle"])

    summary = server.metrics.summary()
    stats = server.prequal.stats()
    cfg = config.tunables()
    rendered = (
        f"policy={config.policy:<7s} d={config.d} pool={config.pool_size:<2d} "
        f"age={config.max_age:.2f} q={config.q_hot:.2f} "
        f"reuse={config.reuse_budget} | p99={summary['p99_ms']:7.2f}ms "
        f"avg={summary['avg_ms']:6.2f}ms done={summary['completed']} "
        f"cold={stats['cold_picks']} hot={stats['hot_picks']} "
        f"fallback={stats['fallbacks']}")
    return {
        "config": cfg,
        "p99_ms": round(summary["p99_ms"], 6),
        "avg_ms": round(summary["avg_ms"], 6),
        "completed": summary["completed"],
        "failed": summary["failed"],
        "pool": stats,
        "rendered": rendered,
    }


def _cells(seed: int, overrides: Dict[str, Any]) -> Tuple[CellSpec, ...]:
    wanted = overrides.get("cells")
    config_overrides = {k: overrides[k] for k in PrequalConfig().tunables()
                        if k in overrides}
    workload_overrides = {k: overrides[k] for k in BASE_WORKLOAD
                          if k in overrides}
    cells = []
    for key, delta in VARIANTS:
        if wanted is not None and key not in wanted:
            continue
        params = dict(workload_overrides)
        params["config"] = {**config_overrides, **delta}
        cells.append(CellSpec("prequal_ablation", key, params, seed))
    return tuple(cells)


def _claims(merged: Dict[str, Any]):
    """The Prequal paper's ordering on p99 under spikes."""
    return check_claims(merged["cells"], (
        ("hcl_p99_below_latency", ["policy/hcl", "policy/latency"],
         lambda hcl, lat: (hcl["p99_ms"] < lat["p99_ms"],
                           f"hcl {hcl['p99_ms']:.2f} ms vs latency "
                           f"{lat['p99_ms']:.2f} ms")),
        ("latency_p99_below_rif", ["policy/latency", "policy/rif"],
         lambda lat, rif: (lat["p99_ms"] < rif["p99_ms"],
                           f"latency {lat['p99_ms']:.2f} ms vs rif "
                           f"{rif['p99_ms']:.2f} ms")),
    ))


lined_experiment(
    "prequal_ablation",
    "Prequal tunables under load spikes (policy / d / pool / age / q)",
    _cells, lambda cell: run_prequal_cell(cell.seed, dict(cell.params)),
    default_seed=7, claims=_claims,
    tunables={
        "cells": "subset of cell keys to run (default: all variants)",
        "d": "probes per decision (paper's power-of-d)",
        "pool_size": "max pooled probe replies",
        "max_age": "staleness bound on pooled replies (s)",
        "q_hot": "RIF quantile splitting hot from cold",
        "reuse_budget": "selections per pooled reply before removal",
        "probe_rate": "token-bucket ceiling on the probe rate (1/s)",
        "probe_burst": "probes that may be issued back-to-back",
        "probe_interval": "background probe refresh period (s)",
        "policy": "base selection policy for every cell (hcl/latency/rif)",
        "duration": "workload duration (s)",
        "settle": "drain time after traffic stops (s)",
        "base_rate": "steady connection rate (cps)",
        "service_s": "service time per request (s)",
        "requests_per_conn": "requests per steady connection",
        "request_gap_mean": "mean think time between requests (s)",
        "spike_rate": "spike connection rate (cps)",
        "spike_width": "duration of each spike (s)",
        "spike_times": "spike start times (s)",
        "n_workers": "workers behind the device",
    })
