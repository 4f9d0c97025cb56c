"""Splice crossover: request size × connection lifetime, hermes vs splice.

The in-kernel interposition datapath (:mod:`repro.splice`) trades a
per-flow setup/teardown cost and a coarser dispatch policy (Charon's
load-aware smooth-WRR) for a per-byte forwarding cost far below the
userspace copy path — and spliced payload events never wake a worker.
That trade has a crossover, and this experiment maps it on a 2×2 grid:

- **request size** (small vs large) scales both the userspace copy cost
  (``event_times`` grow with ``size_bytes × copy_byte_cost``) and the
  kernel forward cost, but the userspace side grows ~5× faster;
- **connection lifetime** (short vs long) bounds how many requests can
  amortize the splice setup: a flow splices only after ``splice_after``
  requests have been parsed in userspace, so a 2-request connection
  forwards a single request per setup while a 16-request connection
  forwards fifteen.

Expected shape (checked by the claim): splice **wins** on p99 where
payloads are large and connections long-lived — nearly all bytes move
kernel-side at a fraction of the copy cost, and the forwarded requests
never queue behind a busy worker.  Splice **loses** where payloads are
small and connections die after a couple of requests — the setup cost
buys almost nothing, heavy-tailed parse times still hit userspace, and
Charon's connection-count weights lag the load signal hermes steers on.

Per-request userspace service is heavy-tailed (quantile-fitted parse
time) plus a copy component proportional to the request size, so both
modes see identical traffic whose cost honestly tracks the size axis.

Cells are independent and fully determined by ``(key, params, seed)``,
so the grid sweeps and memoizes like every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..kernel.tcp import Request
from ..lb.server import NotificationMode
from ..sim.rng import Stream
from ..splice import SpliceConfig, config_from_overrides
from ..workloads.distributions import QuantileSampler
from ..workloads.generator import WorkloadSpec
from .common import run_spec
from .registry import CellSpec, Claim, check_claims, lined_experiment

__all__ = ["run_crossover_cell", "BASE_WORKLOAD", "REGIMES", "MODES"]

#: Shared workload shape; per-regime entries override rate/size/lifetime.
#: The parse-time knots are heavy-tailed (P99 two orders above P50) so
#: dispatch quality — not just raw CPU — shows up in the p99 column.
BASE_WORKLOAD: Dict[str, Any] = {
    "n_workers": 4,
    "duration": 2.0,
    "settle": 1.0,
    "parse_p50": 20e-6,
    "parse_p90": 80e-6,
    "parse_p99": 2e-3,
    "copy_byte_cost": 5e-9,
    "max_events": 3,
}

#: The size × lifetime grid.  Rates keep each regime's offered request
#: rate in a band where queueing (hence dispatch quality) is visible.
REGIMES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("small/short", {"size_bytes": 256, "requests_per_conn": 2,
                     "conn_rate": 8000.0, "request_gap_mean": 0.002}),
    ("small/long", {"size_bytes": 256, "requests_per_conn": 16,
                    "conn_rate": 1000.0, "request_gap_mean": 0.01}),
    ("large/short", {"size_bytes": 65536, "requests_per_conn": 2,
                     "conn_rate": 1500.0, "request_gap_mean": 0.002}),
    ("large/long", {"size_bytes": 65536, "requests_per_conn": 16,
                    "conn_rate": 150.0, "request_gap_mean": 0.01}),
)

#: The head-to-head pair every regime runs.
MODES: Tuple[NotificationMode, ...] = (NotificationMode.HERMES,
                                       NotificationMode.SPLICE)


@dataclass
class _SizedFactory:
    """Requests whose userspace cost tracks their size.

    Total service = heavy-tailed parse sample + ``size × copy_byte_cost``,
    split evenly across a sampled event count — the copy component is what
    the splice datapath's per-byte kernel cost competes against.
    """

    parse_sampler: QuantileSampler
    size_bytes: int
    copy_byte_cost: float
    max_events: int = 3

    def build(self, rng: Stream, tenant_id: int = 0) -> Request:
        total = (self.parse_sampler.sample(rng)
                 + self.size_bytes * self.copy_byte_cost)
        n_events = rng.randint(1, self.max_events)
        return Request(tenant_id=tenant_id, size_bytes=self.size_bytes,
                       event_times=(total / n_events,) * n_events,
                       handler="http")


def run_crossover_cell(seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
    """One (regime, mode) cell: a fresh device under the sized workload."""
    workload = dict(BASE_WORKLOAD)
    workload.update({k: v for k, v in params.items() if k in BASE_WORKLOAD})
    mode = NotificationMode(params["mode"])
    splice_cfg = (config_from_overrides(params.get("config", {}))
                  if mode is NotificationMode.SPLICE else None)

    factory = _SizedFactory(
        parse_sampler=QuantileSampler([(0.5, workload["parse_p50"]),
                                       (0.9, workload["parse_p90"]),
                                       (0.99, workload["parse_p99"])]),
        size_bytes=params["size_bytes"],
        copy_byte_cost=workload["copy_byte_cost"],
        max_events=workload["max_events"])
    spec = WorkloadSpec(
        name=f"xover_{params['regime'].replace('/', '_')}",
        conn_rate=params["conn_rate"], duration=workload["duration"],
        factory=factory, ports=(443,),
        requests_per_conn=params["requests_per_conn"],
        request_gap_mean=params["request_gap_mean"])
    result = run_spec(mode, spec, n_workers=workload["n_workers"],
                      seed=seed, settle=workload["settle"],
                      keep_server=True, splice_config=splice_cfg)

    splice_stats: Dict[str, Any] = {}
    if result.server is not None and result.server.splice is not None:
        splice_stats = result.server.splice.stats()
    rendered = (
        f"{params['regime']:<12s} {mode.value:<7s} "
        f"size={params['size_bytes']:<6d} reqs={params['requests_per_conn']:<3d} "
        f"| p99={result.p99_ms:8.3f}ms avg={result.avg_ms:7.3f}ms "
        f"done={result.completed:6d} "
        f"spliced={splice_stats.get('flows_spliced', 0):5d} "
        f"fwd={splice_stats.get('requests_forwarded', 0):6d}")
    return {
        "regime": params["regime"],
        "mode": mode.value,
        "p99_ms": round(result.p99_ms, 6),
        "avg_ms": round(result.avg_ms, 6),
        "completed": result.completed,
        "failed": result.failed,
        "splice": splice_stats,
        "rendered": rendered,
    }


def _cells(seed: int, overrides: Dict[str, Any]) -> Tuple[CellSpec, ...]:
    wanted = overrides.get("cells")
    config_overrides = {k: overrides[k] for k in SpliceConfig().tunables()
                        if k in overrides}
    workload_overrides = {k: overrides[k] for k in BASE_WORKLOAD
                          if k in overrides}
    cells = []
    for regime, shape in REGIMES:
        for mode in MODES:
            key = f"{regime}/{mode.value}"
            if wanted is not None and key not in wanted:
                continue
            params: Dict[str, Any] = dict(workload_overrides)
            params.update(shape)
            params["regime"] = regime
            params["mode"] = mode.value
            params["config"] = dict(config_overrides)
            cells.append(CellSpec("splice_crossover", key, params, seed))
    return tuple(cells)


def _side(regime: str, wins: bool):
    """Rule: splice wins (or loses) p99 against hermes in ``regime``."""
    def check(hermes, splice):
        holds = (splice["p99_ms"] < hermes["p99_ms"] if wins
                 else splice["p99_ms"] > hermes["p99_ms"])
        return holds, (f"splice {splice['p99_ms']:.3f} ms vs hermes "
                       f"{hermes['p99_ms']:.3f} ms")
    side = "wins" if wins else "loses"
    return (f"splice_{side}_p99_{regime.replace('/', '_')}",
            [f"{regime}/hermes", f"{regime}/splice"], check)


def _claims(merged: Dict[str, Any]) -> Tuple[Claim, ...]:
    """The crossover: splice wins p99 in some regime and loses in
    another, judged once at least two regimes ran both modes."""
    cells = merged["cells"]
    pairs = {regime: (cells[f"{regime}/hermes"]["p99_ms"],
                      cells[f"{regime}/splice"]["p99_ms"])
             for regime, _ in REGIMES
             if f"{regime}/hermes" in cells and f"{regime}/splice" in cells}
    claims = check_claims(cells, (_side("large/long", wins=True),
                                  _side("small/short", wins=False)))
    if len(pairs) < 2:
        return claims
    wins = [r for r, (hermes, splice) in pairs.items() if splice < hermes]
    losses = [r for r, (hermes, splice) in pairs.items() if splice > hermes]
    return claims + (Claim(
        "splice_p99_crossover", bool(wins and losses),
        f"splice wins p99 in {', '.join(wins) or 'none'}; "
        f"loses in {', '.join(losses) or 'none'}"),)


lined_experiment(
    "splice_crossover",
    "Splice vs Hermes p99 crossover (request size x conn lifetime)",
    _cells, lambda cell: run_crossover_cell(cell.seed, dict(cell.params)),
    default_seed=7, claims=_claims,
    tunables={
        "cells": "subset of cell keys to run (default: full grid)",
        "splice_after": "userspace requests parsed before splicing",
        "setup_cost": "worker CPU to install a spliced flow (s)",
        "teardown_cost": "worker CPU to tear a spliced flow down (s)",
        "per_request_cost": "kernel cost per forwarded request (s)",
        "per_byte_cost": "kernel cost per forwarded byte (s)",
        "sockmap_capacity": "max concurrently spliced flows",
        "weight_refresh": "Charon weight refresh period (s)",
        "max_weight": "integer weight ceiling of the WRR picker",
        "duration": "workload duration (s)",
        "settle": "drain time after traffic stops (s)",
        "n_workers": "workers behind the device",
        "copy_byte_cost": "userspace copy cost per byte (s)",
        "parse_p50": "P50 of the heavy-tailed parse time (s)",
        "parse_p90": "P90 of the heavy-tailed parse time (s)",
        "parse_p99": "P99 of the heavy-tailed parse time (s)",
        "max_events": "most epoll events one request is split into",
    })
