"""Appendix C — group scheduling: cache locality vs load balance, and
two-level selection beyond 64 workers.

Group-based Hermes (Fig. A6) hashes DIP&Dport to a worker *group*, then
applies the bitmap inside the group: connections to one destination stay in
one group (locality) while balancing across that group's workers.  The
degenerate points: one group == standard Hermes; one worker per group ==
plain reuseport.

The >64-worker concern (§7): with 128 workers, Hermes builds two 64-wide
groups, each with its own WST and 64-bit atomic word, selected by a level-1
flow hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.stats import jains_fairness
from ..core.config import HermesConfig
from ..lb.server import LBServer, NotificationMode
from ..sim.engine import Environment
from ..sim.rng import RngRegistry
from ..workloads.cases import build_case_workload
from ..workloads.generator import TrafficGenerator
from .registry import CellSpec, ExperimentSpec, register

__all__ = ["GroupLocalityResult", "run_group_locality",
           "WideDeviceResult", "run_wide_device"]


@dataclass(frozen=True)
class GroupLocalityResult:
    group_size: int
    n_groups: int
    #: How concentrated each destination port's traffic is across workers
    #: (1.0 == all of a port's connections on one worker).
    locality_score: float
    #: Jain's fairness of per-worker accepted connections (1.0 == even).
    balance_score: float
    avg_ms: float


def run_group_locality(group_size: int, n_workers: int = 8,
                       n_ports: int = 16, duration: float = 3.0,
                       seed: int = 83) -> GroupLocalityResult:
    """One point of the locality/balance trade-off curve."""
    env = Environment()
    registry = RngRegistry(seed)
    config = HermesConfig(group_size=group_size, min_workers=1)
    ports = tuple(range(20001, 20001 + n_ports))
    server = LBServer(env, n_workers=n_workers, ports=ports,
                      mode=NotificationMode.HERMES, config=config,
                      group_key_mode="dip_dport",
                      hash_seed=registry.stream("hash").randrange(2 ** 32))
    server.start()
    spec = build_case_workload("case3", "medium", n_workers=n_workers,
                               duration=duration, ports=ports)
    gen = TrafficGenerator(env, server, registry.stream("traffic"), spec)
    gen.start()
    env.run(until=duration + 0.5)

    # Locality: for each port, the max share of its conns on one worker.
    port_worker: Dict[int, Dict[int, int]] = {}
    for worker in server.workers:
        for conn in worker.conns.values():
            shares = port_worker.setdefault(conn.port, {})
            shares[worker.worker_id] = shares.get(worker.worker_id, 0) + 1
    locality_scores = []
    for port, shares in port_worker.items():
        total = sum(shares.values())
        if total >= 3:
            locality_scores.append(max(shares.values()) / total)
    locality = (sum(locality_scores) / len(locality_scores)
                if locality_scores else 0.0)
    accepted = [float(w.accepted) for w in server.metrics.workers.values()]
    return GroupLocalityResult(
        group_size=group_size,
        n_groups=len(server.groups),
        locality_score=locality,
        balance_score=jains_fairness(accepted),
        avg_ms=server.metrics.avg_latency() * 1e3,
    )


@dataclass(frozen=True)
class WideDeviceResult:
    n_workers: int
    n_groups: int
    #: Every group dispatched traffic.
    all_groups_used: bool
    conn_fairness: float
    avg_ms: float
    completed: int


def run_wide_device(n_workers: int = 128, duration: float = 2.0,
                    seed: int = 89) -> WideDeviceResult:
    """A 128-worker device: two-level selection must engage (2 groups)."""
    env = Environment()
    registry = RngRegistry(seed)
    server = LBServer(env, n_workers=n_workers, ports=[443],
                      mode=NotificationMode.HERMES,
                      hash_seed=registry.stream("hash").randrange(2 ** 32))
    server.start()
    spec = build_case_workload("case1", "light", n_workers=n_workers,
                               duration=duration)
    gen = TrafficGenerator(env, server, registry.stream("traffic"), spec)
    gen.start()
    env.run(until=duration + 0.5)
    program = server.dispatch_program
    group_hits = getattr(program, "group_hits", [1])
    accepted = [float(w.accepted) for w in server.metrics.workers.values()]
    return WideDeviceResult(
        n_workers=n_workers,
        n_groups=len(server.groups),
        all_groups_used=all(h > 0 for h in group_hits),
        conn_fairness=jains_fairness(accepted),
        avg_ms=server.metrics.avg_latency() * 1e3,
        completed=server.metrics.requests_completed,
    )


def _locality_line(r: GroupLocalityResult) -> str:
    return (f"group size {r.group_size}: groups {r.n_groups}  locality "
            f"{r.locality_score:.2f}  balance {r.balance_score:.3f}  "
            f"avg {r.avg_ms:.2f} ms")


def _wide_line(wide: WideDeviceResult) -> str:
    return (f"{wide.n_workers} workers: {wide.n_groups} groups, all used: "
            f"{wide.all_groups_used}, fairness {wide.conn_fairness:.3f}")


def _cells(seed, overrides):
    sizes = tuple(overrides.get("group_sizes", (1, 2, 4, 8)))
    params = {"n_workers": overrides.get("n_workers", 8),
              "n_ports": overrides.get("n_ports", 16),
              "duration": overrides.get("duration", 3.0)}
    cells = [CellSpec("appc", f"group{size}",
                      dict(params, group_size=size), seed)
             for size in sizes]
    cells.append(CellSpec(
        "appc", "wide",
        {"n_workers": overrides.get("wide_workers", 128),
         "duration": overrides.get("wide_duration", 2.0)}, seed + 6))
    return tuple(cells)


def _run_cell(cell):
    from dataclasses import asdict
    p = cell.params
    if cell.key == "wide":
        wide = run_wide_device(n_workers=p["n_workers"],
                               duration=p["duration"], seed=cell.seed)
        return dict(asdict(wide), rendered=_wide_line(wide))
    r = run_group_locality(p["group_size"], n_workers=p["n_workers"],
                           n_ports=p["n_ports"], duration=p["duration"],
                           seed=cell.seed)
    return dict(asdict(r), rendered=_locality_line(r))


def _merge(cells, docs):
    return {"cells": {cell.key: doc for cell, doc in zip(cells, docs)},
            "rendered": "\n".join(doc["rendered"] for doc in docs)}


register(ExperimentSpec(
    name="appc", title="Group scheduling: locality vs balance (App. C)",
    cells=_cells, run_cell=_run_cell, merge=_merge,
    render=lambda merged: merged["rendered"], default_seed=83,
    tunables={"group_sizes": "worker-group sizes (default: 1, 2, 4, 8)",
              "n_workers": "workers behind the locality device",
              "n_ports": "listening ports on the locality device",
              "duration": "locality workload duration (s)",
              "wide_workers": "workers on the wide device (default 128)",
              "wide_duration": "wide-device workload duration (s)"}))


if __name__ == "__main__":  # pragma: no cover - manual harness
    for size in (1, 2, 4, 8):
        print(_locality_line(run_group_locality(size)))
    wide = run_wide_device()
    print(f"128 workers: {wide.n_groups} groups, all used: "
          f"{wide.all_groups_used}, fairness {wide.conn_fairness:.3f}")
