"""The resilience matrix: fault class × notification mode → degradation.

For each named fault scenario and each notification mode, run identical
traffic against a fresh device, arm the scenario's :class:`FaultPlan`, and
measure how the mode degrades and recovers:

- **p99 latency** — the tail the fault inflates;
- **hung requests** — completions slower than the hang threshold (the
  paper's 30 ms → 440 s pathology, counted instead of anecdotal);
- **blast radius** — the fraction of in-flight connections stalled or
  killed by the fault at fire/detection time;
- **recovery time** — how long after the fault fires the device's
  completion-latency profile stays degraded: completions are bucketed on
  the sim clock and recovery ends with the last post-fire bucket whose p99
  exceeds :data:`DEGRADED_P99` (0 = the tail never left its normal band).

Two scenarios reproduce the paper's incidents by name: ``worker_hang``
(§2 / Appendix C: a GC-style pause train on the busiest worker) and
``worker_crash`` (§7: the HTTP/2-upgrade crash — busiest worker dies, its
sockets linger for a detection window, clients reconnect).  The paper's
direction to reproduce: EXCLUSIVE concentrates connections on the LIFO
winner, so the busiest worker's failure stalls most of the device, while
HERMES spreads connections and steers new ones away from the victim —
smaller blast radius, faster re-convergence.

Determinism: traffic streams derive from the cell seed (mode-independent —
every mode sees the same connections), fault randomness from a forked
registry, and results serialize to canonical JSON so byte-identical output
is a testable property.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..cell import build_cell
from ..kernel.nic import Nic
from ..lb.server import NotificationMode
from ..obs import Tracer
from ..workloads.distributions import FixedFactory
from ..workloads.generator import WorkloadSpec
from .injector import FaultInjector
from .plan import FaultKind, FaultPlan, FaultSpec

__all__ = ["ResilienceCell", "ResilienceMatrix", "SCENARIOS",
           "RESILIENCE_MODES", "run_resilience_cell", "render_matrix"]

#: Modes compared in the matrix: the Table 3 trio plus PREQUAL, the
#: probe-based latency balancer (``repro.prequal``), plus SPLICE, the
#: in-kernel interposition datapath (``repro.splice``) — the architectural
#: head-to-head the matrix exists for.
RESILIENCE_MODES: Tuple[NotificationMode, ...] = (
    NotificationMode.EXCLUSIVE,
    NotificationMode.REUSEPORT,
    NotificationMode.HERMES,
    NotificationMode.PREQUAL,
    NotificationMode.SPLICE,
)

#: Completions slower than this count as hung (well above the ~ms service
#: times of the scenario workload, aligned with the scheduler's
#: ``hang_threshold``).
HUNG_THRESHOLD = 0.050

#: A latency bucket whose p99 exceeds this is "still degraded" — an order
#: of magnitude above the scenario workload's healthy p99 (~1 ms).
DEGRADED_P99 = 0.010

#: Completion-latency bucket width for the recovery-time sweep.
RECOVERY_BUCKET = 0.100


def _scenario_worker_hang() -> FaultPlan:
    """§2 / Appendix C: a GC-pause train stalls the busiest worker."""
    return FaultPlan(faults=(
        FaultSpec(kind=FaultKind.WORKER_HANG, at=1.0, duration=0.4,
                  target="busiest", count=2, period=0.8),
    ), seed=101)


def _scenario_worker_crash() -> FaultPlan:
    """§7: the busiest worker crashes; sockets linger for a detection
    window; the worker restarts after the incident."""
    return FaultPlan(faults=(
        FaultSpec(kind=FaultKind.WORKER_CRASH, at=1.5, target="busiest",
                  detect_delay=0.2, restart_after=0.7),
    ), seed=102)


def _scenario_slow_worker() -> FaultPlan:
    """One worker serves 6× slower for a second (thermal throttling)."""
    return FaultPlan(faults=(
        FaultSpec(kind=FaultKind.SLOW_WORKER, at=1.0, duration=1.0,
                  target="busiest", magnitude=6.0),
    ), seed=103)


def _scenario_nic_loss() -> FaultPlan:
    """A 30% loss burst at the NIC for half a second."""
    return FaultPlan(faults=(
        FaultSpec(kind=FaultKind.NIC_LOSS, at=1.0, duration=0.5,
                  magnitude=0.3),
    ), seed=104)


#: Named scenarios: name → zero-arg FaultPlan factory.
SCENARIOS: Dict[str, Callable[[], FaultPlan]] = {
    "worker_hang": _scenario_worker_hang,
    "worker_crash": _scenario_worker_crash,
    "slow_worker": _scenario_slow_worker,
    "nic_loss": _scenario_nic_loss,
}


@dataclass(frozen=True)
class ResilienceCell:
    """One (scenario, mode) cell of the matrix."""

    scenario: str
    mode: str
    p99_ms: float
    hung_requests: int
    #: Fraction of in-flight connections stalled/killed by the fault.
    blast_radius: float
    #: Seconds of degraded output after the first fault fired.
    recovery_time: float
    completed: int
    failed: int
    faults_fired: int

    def to_dict(self) -> dict:
        # Round floats so JSON output is stable across platforms and
        # byte-comparable between runs (the determinism CI check).
        data = asdict(self)
        data["p99_ms"] = round(data["p99_ms"], 6)
        data["blast_radius"] = round(data["blast_radius"], 6)
        data["recovery_time"] = round(data["recovery_time"], 6)
        return data


@dataclass(frozen=True)
class ResilienceMatrix:
    """The full fault × mode matrix."""

    cells: Tuple[ResilienceCell, ...]
    seed: int

    def cell(self, scenario: str, mode: str) -> ResilienceCell:
        for c in self.cells:
            if c.scenario == scenario and c.mode == mode:
                return c
        raise KeyError(f"no cell ({scenario}, {mode})")

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(
            {"seed": self.seed,
             "cells": [c.to_dict() for c in self.cells]},
            indent=indent, sort_keys=True)


def _workload(duration: float) -> WorkloadSpec:
    """The scenario workload: steady CPS, multi-request connections with
    gaps (so stalled connections accumulate backlog on a hung worker),
    clients that reconnect after resets (the §7 reconnect storm)."""
    return WorkloadSpec(
        name="resilience", conn_rate=150.0, duration=duration,
        factory=FixedFactory((300e-6,)), ports=(443,),
        requests_per_conn=12, request_gap_mean=0.25,
        reconnect_on_reset=True)


def _blast_radius(injector: FaultInjector) -> float:
    """Largest per-fault fraction of in-flight connections affected."""
    worst = 0.0
    for record in injector.log:
        total = record.get("total_conns", 0)
        if not total:
            continue
        if record["event"] == "clear" and "blast" in record:
            # Crash: connections actually killed at detection time.
            worst = max(worst, record["blast"] / total)
        elif record["event"] == "fire" and "conns_at_risk" in record:
            # Hang/slow: connections pinned to the stalled worker.
            worst = max(worst, record["conns_at_risk"] / total)
    return worst


def run_resilience_cell(scenario: str, mode: NotificationMode,
                        seed: int = 7, n_workers: int = 8,
                        duration: float = 3.0,
                        settle: float = 2.0) -> ResilienceCell:
    """Run one (scenario, mode) cell on a fresh device."""
    plan = SCENARIOS[scenario]()
    tracer = Tracer()
    # Traffic derives from the cell, not the mode: all modes see identical
    # connections, so cells differ only by how the mode handles the fault.
    cell = build_cell(_workload(duration), mode, seed, n_workers=n_workers,
                      hash_stream="hash-seed", faults=plan,
                      nic=Nic(n_queues=n_workers), tracer=tracer)
    cell.run(until=duration + settle)
    server, injector = cell.server, cell.injector

    summary = server.metrics.summary()
    fires = injector.fired()
    first_fire = min((r["t"] for r in fires), default=None)
    hung = 0
    buckets: Dict[int, List[float]] = {}
    for event in tracer.events:
        if event.name != "request.complete":
            continue
        latency = event.fields.get("latency", 0.0) if event.fields else 0.0
        if latency > HUNG_THRESHOLD:
            hung += 1
        buckets.setdefault(int(event.ts / RECOVERY_BUCKET), []).append(latency)
    recovery = 0.0
    if first_fire is not None:
        from ..analysis.stats import percentile
        for index, latencies in buckets.items():
            end = (index + 1) * RECOVERY_BUCKET
            if end <= first_fire:
                continue
            if percentile(latencies, 99) > DEGRADED_P99:
                recovery = max(recovery, end - first_fire)
    return ResilienceCell(
        scenario=scenario, mode=mode.value,
        p99_ms=summary["p99_ms"], hung_requests=hung,
        blast_radius=_blast_radius(injector), recovery_time=recovery,
        completed=summary["completed"], failed=summary["failed"],
        faults_fired=injector.faults_fired)


def render_matrix(matrix: ResilienceMatrix) -> str:
    from ..analysis.reporting import render_table
    headers = ["Scenario", "Mode", "p99(ms)", "Hung", "Blast",
               "Recovery(s)", "Done", "Failed"]
    rows: List[List] = []
    for cell in matrix.cells:
        rows.append([
            cell.scenario, cell.mode, f"{cell.p99_ms:.2f}",
            cell.hung_requests, f"{cell.blast_radius * 100:.1f}%",
            f"{cell.recovery_time:.3f}", cell.completed, cell.failed])
    return render_table(headers, rows,
                        title="Resilience matrix (fault x mode)")
