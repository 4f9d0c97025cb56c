"""§5.1.1 — connection-pool exhaustion under uneven distribution.

"Workers typically manage connections using preallocated memory pools of
fixed capacity.  When connections are unevenly distributed among workers,
overall system capacity can degrade significantly.  In the past, we
observed cases where some workers exhausted their connection pool
resources and were unable to accept new connections, despite low CPU
utilization."

With per-worker pools of size P and n workers, ideal device capacity is
n×P concurrent connections.  Exclusive's concentration exhausts one
worker's pool long before the device is full; Hermes's conn-count filter
steers around full workers, so the usable capacity approaches n×P.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..cell import build_cell
from ..kernel.tcp import Connection
from ..lb.server import NotificationMode
from ..lb.worker import ServiceProfile
from ..workloads.generator import WorkloadSpec, client_four_tuple
from .registry import CellSpec, check_claims, lined_experiment

__all__ = ["PoolCapacityResult", "run_pool_capacity"]


@dataclass(frozen=True)
class PoolCapacityResult:
    mode: str
    pool_size: int
    n_workers: int
    offered: int
    established: int
    #: Connections stranded unaccepted on a full worker's queue while
    #: other workers still had pool room — the §5.1.1 degradation.
    stranded: int
    refused_pool_exhausted: int
    #: Established / (n_workers × pool_size): usable capacity fraction.
    capacity_utilization: float
    #: Pool slots still free at the end (spare capacity that imbalanced
    #: dispatch could not reach).
    spare_slots: int


def run_pool_capacity(mode: NotificationMode, n_workers: int = 8,
                      pool_size: int = 50, overshoot: float = 1.0,
                      seed: int = 113, config=None,
                      label: str = None) -> PoolCapacityResult:
    """Offer exactly ``overshoot × n × P`` long-lived connections; ideal
    dispatch establishes all of them, imbalanced dispatch strands some on
    full workers while others keep spare pool slots."""
    # The feeder is the traffic: the spec only names the port, and the
    # cell's generator is never started.
    spec = WorkloadSpec(name="pool", conn_rate=0.0, duration=0.0,
                        factory=None, ports=(443,))
    cell = build_cell(spec, mode, seed, n_workers=n_workers, config=config,
                      profile=ServiceProfile(max_connections=pool_size))
    env, server = cell.env, cell.server

    total = int(n_workers * pool_size * overshoot)
    rng = cell.registry.stream("conns")
    conns: List[Connection] = []

    def feeder(env):
        for i in range(total):
            conn = Connection(client_four_tuple(rng, 1 << 20, 443),
                              created_time=env.now)
            server.connect(conn)
            conns.append(conn)
            yield env.timeout(0.002)

    env.process(feeder(env))
    env.run(until=total * 0.002 + 1.0)

    established = sum(len(w.conns) for w in server.workers)
    refused = sum(w.pool_exhausted for w in server.workers)
    stranded = sum(
        1 for c in conns
        if c.state.value == "established" and c.worker is None)
    spare = sum(max(0, pool_size - len(w.conns)) for w in server.workers)
    return PoolCapacityResult(
        mode=label or mode.value,
        pool_size=pool_size,
        n_workers=n_workers,
        offered=total,
        established=established,
        stranded=stranded,
        refused_pool_exhausted=refused,
        capacity_utilization=established / (n_workers * pool_size),
        spare_slots=spare,
    )


def _arm_line(r: PoolCapacityResult) -> str:
    return (f"{r.mode:16s} established {r.established}/"
            f"{r.n_workers * r.pool_size} "
            f"({r.capacity_utilization * 100:.0f}% of capacity)  "
            f"stranded {r.stranded}  spare slots {r.spare_slots}  "
            f"pool-refused {r.refused_pool_exhausted}")


def _cells(seed, overrides):
    params = {"n_workers": overrides.get("n_workers", 8),
              "pool_size": overrides.get("pool_size", 50)}
    arms = ("exclusive", "reuseport", "hermes", "hermes+capacity")
    return tuple(CellSpec("pool_capacity", arm, dict(params, arm=arm), seed)
                 for arm in arms)


def _run_cell(cell):
    from dataclasses import asdict
    p = cell.params
    arm = p["arm"]
    if arm == "hermes+capacity":
        from ..core.config import HermesConfig
        r = run_pool_capacity(
            NotificationMode.HERMES, n_workers=p["n_workers"],
            pool_size=p["pool_size"], seed=cell.seed,
            config=HermesConfig(
                filter_order=("time", "capacity", "conn", "event")),
            label="hermes+capacity")
    else:
        r = run_pool_capacity(NotificationMode(arm),
                              n_workers=p["n_workers"],
                              pool_size=p["pool_size"], seed=cell.seed)
    return dict(asdict(r), rendered=_arm_line(r))


def _claims(merged):
    return check_claims(merged["cells"], (
        ("reuseport_strands_conns_beside_spare_slots", ["reuseport"],
         lambda r: (r["stranded"] >= 10 and r["spare_slots"] >= 10,
                    f"stranded {r['stranded']}, spare slots "
                    f"{r['spare_slots']}")),
        ("plain_hermes_strands_near_uniform_fullness", ["hermes"],
         lambda r: (r["stranded"] >= 5, f"stranded {r['stranded']}")),
        ("capacity_filter_recovers_the_pool", ["hermes", "hermes+capacity"],
         lambda plain, cap: (
             cap["stranded"] < plain["stranded"] / 2
             and cap["capacity_utilization"] > 0.98,
             f"stranded {cap['stranded']} vs {plain['stranded']}, "
             f"utilization {cap['capacity_utilization']:.1%}")),
    ))


lined_experiment("pool_capacity",
                 "Connection-pool exhaustion under uneven distribution",
                 _cells, _run_cell, default_seed=113, claims=_claims,
                 tunables={"n_workers": "workers behind the device",
                           "pool_size": "connection-pool slots per worker"})
