"""The benchmark's workloads and the simulation one pass runs.

Every workload is an open loop in simulated time: Poisson connection
arrivals at the case's connection rate, independent of how fast the
modelled load balancer answers.  A workload is a pure function of its seed,
so every pass of one workload on one seed produces the same result document,
and :func:`digest` of that document is the benchmark's correctness anchor.

Only public ``repro`` entry points are called: ``run_spec``,
``build_case_workload``, ``NotificationMode``, ``run_sharded_fleet`` and
``watch``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Union

#: Workers per simulated load-balancer device.
N_WORKERS = 16
#: Simulated seconds after the generation window so requests can finish.
SETTLE = 0.5
FIRST_PORT = 443


@dataclass(frozen=True)
class Cell:
    """One load-balancer device, in one architecture mode, on one case."""

    mode: str
    case: str
    #: ``light``/``medium``/``heavy``: the paper's 1x/2x/3x replay.
    load: str
    ports: int
    duration: float


@dataclass(frozen=True)
class FleetRun:
    """A process-sharded fleet of Hermes instances behind ECMP ingress."""

    n_instances: int
    n_workers: int
    duration: float
    conn_rate: float


#: Sizes are chosen so one untraced pass takes about two host seconds on a
#: 2-CPU container, which lets a 10 s run measure several passes.
WORKLOADS: Dict[str, Union[Cell, FleetRun]] = {
    # Every SYN runs the eBPF dispatch program and every event-loop
    # iteration the cascading scheduler: where a repro.core change shows.
    "hermes_case1": Cell("hermes", "case1", "medium", ports=4,
                         duration=0.4),
    # Byte-identical traffic (same seed, same spec) under EPOLLEXCLUSIVE:
    # repro.core does no work; kernel wait-queue wakes and futile accepts
    # dominate.  The bypass control for core changes.
    "exclusive_case1": Cell("exclusive", "case1", "medium", ports=4,
                            duration=0.4),
    # Long-lived connections, 40 requests each, mostly forwarded in-kernel:
    # the per-request path, while core and the worker loop sit nearly idle.
    # Light load keeps the ~650 concurrent flows under the 1024-entry
    # SOCKMAP; at medium load the map saturates and each seed's connection
    # count swings mean latency by ~18%.
    "splice_case3": Cell("splice", "case3", "light", ports=1, duration=6.0),
    # Sixteen shards each replay the full arrival stream and drop the ~94%
    # of arrivals another shard owns: ingress hashing, per-shard set-up and
    # the merge.
    "fleet16": FleetRun(n_instances=16, n_workers=4, duration=2.0,
                        conn_rate=600.0),
}


@dataclass
class Outcome:
    """What one simulated run produced."""

    #: The simulated result document the digest covers.
    doc: Dict[str, Any]
    #: Simulated end-to-end values (exact for a seed).
    sim: Dict[str, float]
    #: Engine events processed (monitors add tick events, so not digested).
    steps: int


def digest(doc: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON (sorted keys) of a result document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def simulate(name: str, seed: int, *, check: bool,
             on_start: Callable[[], None],
             on_stop: Callable[[], None]) -> Outcome:
    """Run workload ``name`` once.

    ``on_start`` fires just before the first simulated event and
    ``on_stop`` as soon as the simulation returns, so the caller can time
    set-up and run separately.  With ``check`` the live invariant monitors
    (and, for the fleet, the per-connection-consistency monitor) are armed
    and any violation raises.
    """
    workload = WORKLOADS[name]
    if isinstance(workload, Cell):
        return _simulate_cell(workload, seed, check, on_start, on_stop)
    return _simulate_fleet(workload, seed, check, on_start, on_stop)


def _simulate_cell(cell: Cell, seed: int, check: bool,
                   on_start: Callable[[], None],
                   on_stop: Callable[[], None]) -> Outcome:
    from repro.check.invariants import watch
    from repro.experiments.common import run_spec
    from repro.lb.server import NotificationMode
    from repro.workloads.cases import build_case_workload

    spec = build_case_workload(
        cell.case, cell.load, n_workers=N_WORKERS, duration=cell.duration,
        ports=tuple(range(FIRST_PORT, FIRST_PORT + cell.ports)))
    live: Dict[str, Any] = {}

    def hook(env, server, gen) -> None:
        live["env"], live["gen"] = env, gen
        if check:
            # Raises InvariantViolation on the first failed check.
            live["monitor"] = watch(server)
        on_start()

    result = run_spec(NotificationMode(cell.mode), spec, n_workers=N_WORKERS,
                      seed=seed, settle=SETTLE, env_hook=hook)
    on_stop()
    if check:
        live["monitor"].finalize()
    stats = live["gen"].stats
    sim = _sim_metrics(
        completed=result.completed, sent=stats.requests_sent,
        refused=stats.connections_refused, failed=result.failed,
        reset=stats.connections_reset, avg_ms=result.avg_ms,
        p99_ms=result.p99_ms, goodput_rps=result.throughput_rps)
    return Outcome(doc=result.to_doc(), sim=sim, steps=live["env"].steps)


def _simulate_fleet(fleet: FleetRun, seed: int, check: bool,
                    on_start: Callable[[], None],
                    on_stop: Callable[[], None]) -> Outcome:
    from repro.fleet.sharded import run_sharded_fleet

    on_start()
    doc = run_sharded_fleet(
        n_instances=fleet.n_instances, n_workers=fleet.n_workers,
        duration=fleet.duration, conn_rate=fleet.conn_rate, seed=seed,
        jobs=1, check=check)
    on_stop()
    if check and doc["pcc_violations"] != 0:
        raise AssertionError(
            f"{doc['pcc_violations']} per-connection-consistency violations")
    # Monitors add tick events and pass counters; neither is a simulated
    # outcome, so neither enters the digest.
    steps = doc.pop("steps")
    doc.pop("passes")
    sim = _sim_metrics(
        completed=doc["completed"], sent=doc["requests_sent"],
        refused=doc["conn_refused"], failed=doc["failed"],
        reset=doc["conn_reset"], avg_ms=doc["avg_ms"],
        p99_ms=doc["p99_ms"], goodput_rps=doc["throughput_rps"])
    return Outcome(doc=doc, sim=sim, steps=steps)


def _sim_metrics(*, completed: int, sent: int, refused: int, failed: int,
                 reset: int, avg_ms: float, p99_ms: float,
                 goodput_rps: float) -> Dict[str, float]:
    attempted = sent + refused
    return {
        "sim_avg_ms": avg_ms,
        "sim_p99_ms": p99_ms,
        "sim_goodput_rps": goodput_rps,
        # Requests still in flight when the simulation ends count as not
        # completed.
        "completed_frac": completed / attempted if attempted else 0.0,
        "completed": completed,
        "attempted": attempted,
        "failed": failed + refused + reset,
    }
