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

Case 2 (shuffle sharding): an abusive tenant's monster requests degrade
an innocent tenant on a shared device until the sandbox migration
quarantines it, and the three-phase overload ladder grows a tenant's
capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .._sum import left_sum
from ..analysis.stats import jains_fairness
from ..cell import build_cell
from ..core.config import HermesConfig
from ..kernel.tcp import Connection
from ..lb.server import LBServer, NotificationMode
from ..sim.engine import Environment
from ..sim.rng import RngRegistry
from ..workloads.cases import build_case_workload
from ..workloads.distributions import FixedFactory
from ..workloads.generator import client_four_tuple
from .registry import CellSpec, Claim, check_claims, lined_experiment

__all__ = ["GroupLocalityResult", "run_group_locality",
           "WideDeviceResult", "run_wide_device", "run_sandbox_isolation",
           "run_phased_scaling"]


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
    config = HermesConfig(group_size=group_size, min_workers=1)
    ports = tuple(range(20001, 20001 + n_ports))
    spec = build_case_workload("case3", "medium", n_workers=n_workers,
                               duration=duration, ports=ports)
    server = build_cell(spec, NotificationMode.HERMES, seed,
                        n_workers=n_workers, config=config,
                        group_key_mode="dip_dport").run(
        until=duration + 0.5).server

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
    locality = (left_sum(locality_scores) / len(locality_scores)
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
    spec = build_case_workload("case1", "light", n_workers=n_workers,
                               duration=duration)
    server = build_cell(spec, NotificationMode.HERMES, seed,
                        n_workers=n_workers).run(until=duration + 0.5).server
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


def run_sandbox_isolation(seed: int = 91) -> Dict[str, Dict[str, float]]:
    """An abusive tenant's 80 ms requests share the one device of an
    innocent tenant's 0.5 ms requests until the abuser is migrated to a
    sandbox device at t=4 s.  Returns the innocent tenant's request count
    and average latency per phase: ``before`` the migration, the ``drain``
    window while the shared device works off the abuser's backlog, and
    ``after``."""
    env = Environment()
    registry = RngRegistry(seed)

    def start_device(name):
        device = LBServer(env, n_workers=2, ports=[443],
                          mode=NotificationMode.HERMES, name=name,
                          hash_seed=registry.stream(
                              f"h:{name}").randrange(2 ** 32))
        device.start()
        return device

    # Both tenants on one shared device: worst-case co-location.
    abusive, innocent = 0, 1
    shared = start_device("fleet-dev1")
    device_of = {abusive: shared, innocent: shared}
    conn_rng = registry.stream("conns")
    latencies: Dict[str, List[float]] = {"before": [], "drain": [],
                                         "after": []}
    phase = ["before"]

    def drive(tenant, factory, period):
        def proc(env):
            while True:
                conn = Connection(client_four_tuple(conn_rng, 1 << 20, 443),
                                  tenant_id=tenant, created_time=env.now)
                device = device_of[tenant]
                if device.connect(conn):
                    request = factory.build(conn_rng, tenant_id=tenant)
                    device.deliver(conn, request)
                    if tenant == innocent:
                        def record(req=request, bucket=phase[0]):
                            if req.latency is not None:
                                latencies[bucket].append(req.latency)
                        env.schedule_callback(2.0, record)
                    conn.client_close()
                yield env.timeout(period)
        env.process(proc(env), name=f"tenant{tenant}")

    drive(abusive, FixedFactory(event_times=(0.080,)), 0.030)
    drive(innocent, FixedFactory(event_times=(0.0005,)), 0.020)

    def migrate():
        # New connections only: open ones stay on the shared device.
        device_of[abusive] = start_device("fleet-dev2")
        phase[0] = "drain"

    env.schedule_callback(4.0, migrate)
    env.schedule_callback(7.0, lambda: phase.__setitem__(0, "after"))
    env.run(until=12.0)
    return {bucket: {"n": len(values),
                     "avg_ms": left_sum(values) / len(values) * 1e3
                     if values else 0.0}
            for bucket, values in latencies.items()}


def run_phased_scaling() -> List[Tuple[str, int, int]]:
    """App. C's three-phase overload ladder, applied to device counts:
    four one-device groups of two-worker devices, one tenant on one group.
    Phase 1 joins another existing group, phase 2 adds a device to a group
    the tenant has, phase 3 provisions a new group.  ``(phase, tenant
    capacity in cores, fleet devices)`` per step, starting from the
    initial placement; the policy's arithmetic, not a simulated run."""
    workers_per_device = 2
    group_devices = [1, 1, 1, 1]
    tenant_groups = [0]

    def step(label):
        capacity = workers_per_device * sum(group_devices[g]
                                            for g in tenant_groups)
        return (label, capacity, sum(group_devices))

    steps = [step("initial")]
    tenant_groups.append(1)
    steps.append(step("phase1"))
    group_devices[tenant_groups[0]] += 1
    steps.append(step("phase2"))
    group_devices.append(1)
    tenant_groups.append(len(group_devices) - 1)
    steps.append(step("phase3"))
    return steps


def _locality_line(r: GroupLocalityResult) -> str:
    return (f"group size {r.group_size}: groups {r.n_groups}  locality "
            f"{r.locality_score:.2f}  balance {r.balance_score:.3f}  "
            f"avg {r.avg_ms:.2f} ms")


def _wide_line(wide: WideDeviceResult) -> str:
    return (f"{wide.n_workers} workers: {wide.n_groups} groups, all used: "
            f"{wide.all_groups_used}, fairness {wide.conn_fairness:.3f}")


def _sandbox_line(phases: Dict[str, Dict[str, float]]) -> str:
    return (f"sandbox: innocent tenant avg "
            f"{phases['before']['avg_ms']:.2f} ms beside the abuser -> "
            f"{phases['after']['avg_ms']:.2f} ms after its migration")


def _phased_line(steps: List[Tuple[str, int, int]]) -> str:
    return "phased scaling: " + ", ".join(
        f"{label} {capacity} cores/{devices} devices"
        for label, capacity, devices in steps)


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
    cells.append(CellSpec("appc", "sandbox", {}, seed + 8))
    cells.append(CellSpec("appc", "phased_scaling", {}, seed + 10))
    return tuple(cells)


def _run_cell(cell):
    from dataclasses import asdict
    p = cell.params
    if cell.key == "sandbox":
        phases = run_sandbox_isolation(seed=cell.seed)
        return {"phases": phases, "rendered": _sandbox_line(phases)}
    if cell.key == "phased_scaling":
        steps = run_phased_scaling()
        return {"steps": steps, "rendered": _phased_line(steps)}
    if cell.key == "wide":
        wide = run_wide_device(n_workers=p["n_workers"],
                               duration=p["duration"], seed=cell.seed)
        return dict(asdict(wide), rendered=_wide_line(wide))
    r = run_group_locality(p["group_size"], n_workers=p["n_workers"],
                           n_ports=p["n_ports"], duration=p["duration"],
                           seed=cell.seed)
    return dict(asdict(r), rendered=_locality_line(r))


def _group_claims(groups) -> Tuple[Claim, ...]:
    """The locality/balance trade-off across the group sizes that ran:
    size 1 is reuseport-per-destination (perfect locality), the largest
    size is standard Hermes (best balance)."""
    if len(groups) < 2:
        return ()
    localities = [g["locality_score"] for g in groups]
    balances = [g["balance_score"] for g in groups]
    sizes = [g["group_size"] for g in groups]
    return (
        Claim("locality_falls_as_groups_grow",
              localities == sorted(localities, reverse=True),
              f"locality {[round(x, 2) for x in localities]} over group "
              f"sizes {sizes}"),
        Claim("largest_group_balances_best",
              balances[-1] == max(balances) and balances[-1] > 0.95,
              f"balance {[round(x, 3) for x in balances]}"),
    )


def _sandbox_restores(doc):
    before, after = doc["phases"]["before"], doc["phases"]["after"]
    return (before["n"] > 20 and after["n"] > 20
            and after["avg_ms"] < before["avg_ms"] / 3,
            f"avg {before['avg_ms']:.2f} ms over {before['n']} requests "
            f"-> {after['avg_ms']:.2f} ms over {after['n']}")


def _scaling_ladder(doc):
    capacities = [capacity for _, capacity, _ in doc["steps"]]
    devices = [count for _, _, count in doc["steps"]]
    return (capacities == sorted(capacities)
            and capacities[-1] >= 3 * capacities[0]
            and devices[1] == devices[0] and devices[-1] > devices[0],
            f"capacity {capacities} cores, fleet devices {devices}")


def _claims(merged):
    cells = merged["cells"]
    groups = sorted((doc for key, doc in cells.items()
                     if key.startswith("group")),
                    key=lambda doc: doc["group_size"])
    return _group_claims(groups) + check_claims(cells, (
        ("group_size_1_has_perfect_locality", ["group1"],
         lambda doc: (doc["locality_score"] == 1.0,
                      f"locality {doc['locality_score']:.2f}")),
        ("wide_device_engages_two_level_selection", ["wide"],
         lambda doc: (doc["n_groups"] == 2 and doc["all_groups_used"]
                      and doc["completed"] > 1000
                      and doc["conn_fairness"] > 0.5,
                      f"{doc['n_groups']} groups, all used "
                      f"{doc['all_groups_used']}, completed "
                      f"{doc['completed']}, fairness "
                      f"{doc['conn_fairness']:.3f}")),
        ("sandbox_restores_the_innocent_tenant", ["sandbox"],
         _sandbox_restores),
        ("phased_scaling_borrows_then_provisions", ["phased_scaling"],
         _scaling_ladder),
    ))


lined_experiment(
    "appc", "Group scheduling: locality vs balance (App. C)",
    _cells, _run_cell, default_seed=83, claims=_claims,
    tunables={"group_sizes": "worker-group sizes (default: 1, 2, 4, 8)",
              "n_workers": "workers behind the locality device",
              "n_ports": "listening ports on the locality device",
              "duration": "locality workload duration (s)",
              "wide_workers": "workers on the wide device (default 128)",
              "wide_duration": "wide-device workload duration (s)"})
