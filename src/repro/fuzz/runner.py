"""Scenario execution with every defence armed, plus the fuzz campaign
driver.

:func:`run_scenario` is the deterministic unit: build the trace, build
the target (one device through :func:`repro.cell.build_cell` or a fleet
through :func:`repro.fleet.build_fleet`), arm invariant monitors + live
oracles + the fault injector (+ the optional deliberate-corruption
drill), replay, and report a JSON-safe document.  The same scenario dict
always yields the same document, byte for byte — which is what lets
:func:`run_fuzz` run its scenarios as cells through
:func:`repro.sweep.run_cells`: memoized in the sweep cell cache, and
in parallel with results merged in the serial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..experiments.registry import CellSpec, normalize_doc
from ..sim.rng import RngRegistry
from ..sweep.orchestrator import run_cells
from ..workloads.library import build_family_trace
from ..workloads.trace import Trace, TraceReplayer
from .generator import Scenario, generate_scenarios

__all__ = ["FuzzReport", "run_scenario", "run_fuzz"]

#: Post-trace settle time so in-flight requests and fault recoveries
#: finish before monitors finalize.
SETTLE = 0.5

REPORT_SCHEMA = "repro/fuzz-report/v1"


def build_scenario_trace(scenario: Scenario,
                         registry: RngRegistry) -> Trace:
    """The scenario's trace: inline events if shrunk, else the family."""
    if scenario.trace_events is not None:
        return Trace.from_dict({"events": scenario.trace_events})
    return build_family_trace(scenario.family, scenario.workload,
                              registry.stream("workload"))


def run_scenario(scenario: Scenario) -> Dict[str, Any]:
    """Execute one scenario with monitors, oracles, and faults armed."""
    from ..check import check_tracer, run_checked
    from ..check.invariants import InvariantViolation, corrupt_bitmap, watch
    from ..check.oracles import OracleMismatch
    from ..check.pcc import watch_fleet
    from ..cell import build_cell
    from ..faults.injector import FaultInjector
    from ..fleet import build_fleet
    from ..kernel.nic import Nic
    from ..lb.server import NotificationMode
    from ..workloads.generator import WorkloadSpec

    tracer = check_tracer()
    trace = build_scenario_trace(scenario, RngRegistry(scenario.seed))
    # The trace is the traffic: the spec only names its ports, and the
    # cell's generator is never started.
    spec = WorkloadSpec(name=scenario.name, conn_rate=0.0, duration=0.0,
                        factory=None, ports=_trace_ports(trace))

    fleet = None
    if scenario.is_fleet:
        cell = build_fleet(spec, scenario.mode, scenario.seed,
                           n_instances=scenario.n_instances,
                           n_workers=scenario.n_workers,
                           policy=scenario.policy, ingress="ecmp",
                           tracer=tracer)
        fleet = cell.server
        monitor: Any = watch_fleet(fleet)
        drill_host = fleet.instances[0]
    else:
        cell = build_cell(spec, NotificationMode(scenario.mode),
                          scenario.seed, n_workers=scenario.n_workers,
                          nic=Nic(n_queues=scenario.n_workers),
                          tracer=tracer)
        monitor = watch(cell.server)
        drill_host = cell.server
    env, target = cell.env, cell.server

    drill_armed = False
    if scenario.drill is not None:
        if scenario.drill != "corrupt_bitmap":
            raise ValueError(f"unknown drill {scenario.drill!r}")
        drill_armed = corrupt_bitmap(drill_host)

    injector = FaultInjector(env, None if scenario.is_fleet else target,
                             scenario.fault_plan(), tracer=tracer,
                             fleet=fleet).arm()
    replayer = TraceReplayer(env, target, trace, rate=scenario.rate)
    replayer.start()
    horizon = trace.duration / scenario.rate + SETTLE

    violation: Optional[Dict[str, Any]] = None
    passes: Dict[str, int] = {}
    comparisons = 0
    try:
        comparisons = run_checked(env, monitor, horizon, passes).total
    except (InvariantViolation, OracleMismatch, AssertionError) as exc:
        kind = ("invariant" if isinstance(exc, InvariantViolation)
                else "oracle" if isinstance(exc, OracleMismatch)
                else "assertion")
        violation = {
            "kind": kind,
            "name": getattr(exc, "name", type(exc).__name__),
            "message": str(exc).splitlines()[0] if str(exc) else "",
        }

    if scenario.is_fleet:
        summary = fleet.summary()
        completed = summary["completed"]
        failed = summary["failed"]
        p99_ms = summary["p99_ms"]
    else:
        metrics = target.metrics
        completed = metrics.requests_completed
        failed = metrics.requests_failed
        p99_ms = metrics.request_latencies.p99 * 1e3

    return normalize_doc({
        "name": scenario.name,
        "ok": violation is None,
        "violation": violation,
        "events": len(trace),
        "replayed": replayer.replayed,
        "skipped": replayer.skipped,
        "completed": completed,
        "failed": failed,
        "p99_ms": round(p99_ms, 6),
        "passes": passes,
        "oracle_comparisons": comparisons,
        "faults_fired": injector.faults_fired,
        "drill_armed": drill_armed,
    })


def _trace_ports(trace: Trace) -> List[int]:
    ports = sorted({event.four_tuple.dst_port for event in trace.events})
    return ports or [443]


def _execute_scenario(cell: CellSpec) -> Dict[str, Any]:
    """Cell entry point, serial or pooled: rebuild the scenario from the
    cell's params and run it."""
    return run_scenario(Scenario.from_dict(cell.params))


@dataclass
class FuzzReport:
    """Everything one fuzz campaign established — JSON-deterministic."""

    seed: int
    budget: int
    results: List[Dict[str, Any]] = field(default_factory=list)
    finds: List[Dict[str, Any]] = field(default_factory=list)
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return [doc for doc in self.results if not doc["ok"]]

    @property
    def ok(self) -> bool:
        return not self.violations

    def document(self) -> Dict[str, Any]:
        """The campaign report.  Deliberately excludes wall-clock data so
        the same seed serializes byte-identically on every run."""
        return normalize_doc({
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "budget": self.budget,
            "ok": self.ok,
            "n_violations": len(self.violations),
            "results": self.results,
            "finds": self.finds,
            "cache": self.cache_stats,
        })


def run_fuzz(budget: int, seed: int = 7, jobs: int = 1,
             shrink: bool = True, cache=None,
             modes: Optional[Sequence[str]] = None,
             families: Optional[Sequence[str]] = None,
             drill: Optional[str] = None,
             regressions_dir: Optional[str] = None,
             fleet_fraction: float = 0.25,
             progress=None) -> FuzzReport:
    """Run one seeded fuzz campaign.

    Scenarios are generated up front, executed (optionally in parallel —
    results are merged in enumeration order, so ``jobs=N`` is
    byte-identical to ``jobs=1``), memoized through ``cache`` when given,
    and every violation is shrunk to a minimal reproducer and registered
    under ``regressions_dir``.
    """
    from .shrink import register_find, shrink_scenario

    say = progress if progress is not None else (lambda *_: None)
    scenarios = generate_scenarios(budget, seed, modes=modes,
                                   families=families, drill=drill,
                                   fleet_fraction=fleet_fraction)
    report = FuzzReport(seed=seed, budget=budget)
    cells = [_scenario_cell(scenario) for scenario in scenarios]
    docs, _ran = run_cells(cells, _execute_scenario, jobs, cache)

    for scenario, doc in zip(scenarios, docs):
        report.results.append(doc)
        status = "ok" if doc["ok"] else \
            f"VIOLATION {doc['violation']['name']}"
        say(f"{scenario.name}: {status}")
        if not doc["ok"] and shrink:
            find = shrink_scenario(scenario, baseline=doc)
            if regressions_dir is not None:
                register_find(find, regressions_dir)
            report.finds.append(find)
            say(f"  shrunk to {find['name']} "
                f"({find['evaluations']} evaluations, "
                f"verified={find['verified']})")
    if cache is not None:
        report.cache_stats = dict(cache.stats)
    return report


def _scenario_cell(scenario: Scenario) -> CellSpec:
    return CellSpec(experiment="fuzz", key=scenario.name,
                    params=scenario.to_dict(), seed=scenario.seed)
