"""``repro check`` — the one-command correctness gate.

Three phases, all opt-in subsets via flags:

- **lint** — the nondeterminism AST pass over the sources.
- **oracles** — a deterministic offline sweep of every reference oracle
  against its fast path (the deep version lives in the hypothesis suites;
  this is the seconds-fast smoke that CI and the CLI run).
- **scenarios** — real end-to-end runs with invariant monitors armed and
  live differential oracles patched in: one Table 3 cell and the §7
  crash-blast scenario in both exclusive and Hermes modes.

:func:`run_monitored_crash` is also the harness for the deliberate-
corruption drill: with ``corrupt_bitmap=True`` every scheduler sync is
wrapped to OR a bit beyond the group width into the kernel's selection
word.  The simulated kernel itself degrades gracefully (dispatch falls
back to hashing, as ``bpf_sk_select_reuseport`` would) — it is the
bitmap↔WST monitor that must catch the corruption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .invariants import InvariantMonitor, watch
from .lint import Finding, lint_paths
from .oracles import (
    live_oracles,
    ref_find_nth_set_bit,
    ref_jhash_words,
    ref_popcount64,
    ref_reciprocal_scale,
)

__all__ = ["CheckReport", "run_check", "run_monitored_crash",
           "run_monitored_fleet", "oracle_sweep"]


@dataclass
class CheckReport:
    """Everything one ``repro check`` invocation established."""

    lint_findings: List[Finding] = field(default_factory=list)
    lint_suppressed: int = 0
    #: oracle name -> agreeing comparisons (offline sweep + live runs).
    oracle_comparisons: Dict[str, int] = field(default_factory=dict)
    #: invariant name -> passing evaluations across all scenarios.
    monitor_passes: Dict[str, int] = field(default_factory=dict)
    #: scenario label -> summary numbers.
    scenarios: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Human-readable violations/mismatches (empty on a clean run).
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.lint_findings and not self.problems

    def merge_comparisons(self, comparisons: Dict[str, int]) -> None:
        for name, count in comparisons.items():
            self.oracle_comparisons[name] = (
                self.oracle_comparisons.get(name, 0) + count)

    def merge_passes(self, passes: Dict[str, int]) -> None:
        for name, count in passes.items():
            self.monitor_passes[name] = (
                self.monitor_passes.get(name, 0) + count)


# ---------------------------------------------------------------------------
# Offline oracle sweep.
# ---------------------------------------------------------------------------

def oracle_sweep(seed: int = 0xC0FFEE, vectors: int = 2000) -> Dict[str, int]:
    """Cross-check every fast path on ``vectors`` seeded random inputs.

    Raises :class:`~repro.check.oracles.OracleMismatch` on the first
    divergence; returns comparison counts when everything agrees.
    """
    from ..core.bitmap import find_nth_set_bit, popcount64
    from ..kernel.hash import jhash_words, reciprocal_scale

    rng = random.Random(seed)
    counts: Dict[str, int] = {}

    def bump(name: str) -> None:
        counts[name] = counts.get(name, 0) + 1

    from .oracles import checked
    c_pop = checked(popcount64, ref_popcount64, "popcount64")
    c_nth = checked(find_nth_set_bit, ref_find_nth_set_bit,
                    "find_nth_set_bit")
    c_scale = checked(reciprocal_scale, ref_reciprocal_scale,
                      "reciprocal_scale")
    c_jhash = checked(jhash_words, ref_jhash_words, "jhash_words")

    for _ in range(vectors):
        word = rng.getrandbits(64)
        n = c_pop(word)
        bump("popcount64")
        if n:
            c_nth(word, rng.randrange(n))
            bump("find_nth_set_bit")
        c_scale(rng.getrandbits(32), rng.randrange(1, 256))
        bump("reciprocal_scale")
        c_jhash([rng.getrandbits(32)
                 for _ in range(rng.randrange(1, 8))],
                rng.getrandbits(32))
        bump("jhash_words")
    return counts


# ---------------------------------------------------------------------------
# Monitored end-to-end scenarios.
# ---------------------------------------------------------------------------

def run_monitored_cell(mode: str = "hermes", case: str = "case2",
                       load: str = "light", n_workers: int = 8,
                       duration: float = 2.0, seed: int = 7):
    """One Table 3 cell with an invariant monitor riding along.

    Returns ``(cell_result, monitor_passes)``; raises on any violation.
    """
    from ..experiments.common import run_case_cell
    from ..lb.server import NotificationMode

    monitors: List[InvariantMonitor] = []

    def arm(env, server, gen):
        monitors.append(watch(server))

    result = run_case_cell(NotificationMode(mode), case, load,
                           n_workers=n_workers, duration=duration,
                           seed=seed, env_hook=arm)
    return result, monitors[0].finalize()


def run_monitored_crash(mode: str = "hermes", n_workers: int = 8,
                        n_connections: int = 400, seed: int = 79,
                        corrupt_bitmap: bool = False,
                        interval: Optional[float] = None,
                        raise_on_violation: bool = True):
    """The §7 crash-blast scenario with monitors armed.

    Mirrors the sec7 experiment's construction (same seeds, same fault
    plan: crash the busiest worker at t=2.5, detect 5 ms later) and runs
    it under a flight recorder so a violation carries a post-mortem dump.

    ``corrupt_bitmap=True`` arms the corruption drill described in the
    module docstring.  Returns ``(monitor, passes, summary)``.
    """
    from ..faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
    from ..lb.server import LBServer, NotificationMode
    from ..obs import FlightRecorder, Tracer
    from ..sim.engine import Environment
    from ..sim.rng import RngRegistry
    from ..workloads.distributions import FixedFactory
    from ..workloads.generator import TrafficGenerator, WorkloadSpec

    env = Environment()
    registry = RngRegistry(seed)
    recorder = FlightRecorder(capacity=256)
    tracer = Tracer(env, recorder=recorder, keep_events=False)
    server = LBServer(env, n_workers=n_workers, ports=[443],
                      mode=NotificationMode(mode),
                      hash_seed=registry.stream("hash").randrange(2 ** 32),
                      tracer=tracer)
    server.start()
    monitor = watch(server, interval=interval,
                    raise_on_violation=raise_on_violation)
    if corrupt_bitmap:
        if not server.groups:
            raise ValueError(
                f"mode {mode!r} has no selection bitmap to corrupt")
        group = server.groups[0]
        bad_bit = 1 << len(group.worker_ids)
        real_update = group.sel_map.update_from_user

        def corrupted_update(key: int, value: int) -> None:
            real_update(key, value | bad_bit)

        group.sel_map.update_from_user = corrupted_update

    spec = WorkloadSpec(name="blast", conn_rate=n_connections / 2.0,
                        duration=2.0, factory=FixedFactory((200e-6,)),
                        ports=(443,), requests_per_conn=50,
                        request_gap_mean=0.5)
    gen = TrafficGenerator(env, server, registry.stream("traffic"), spec)
    plan = FaultPlan(faults=(
        FaultSpec(kind=FaultKind.WORKER_CRASH, at=2.5, target="busiest",
                  detect_delay=0.005),
    ), seed=seed)
    injector = FaultInjector(env, server, plan, tracer=tracer).arm()
    gen.start()
    env.run(until=3.0)
    passes = monitor.finalize()

    fire = injector.fired(FaultKind.WORKER_CRASH)[0]
    cleanup = [r for r in injector.log if r["event"] == "clear"][0]
    total = fire["total_conns"]
    killed = cleanup["blast"]
    summary = {
        "mode": mode,
        "total_connections": total,
        "connections_killed": killed,
        "blast_fraction": killed / total if total else 0.0,
    }
    return monitor, passes, summary


def run_monitored_fleet(policy: str = "stateless", n_instances: int = 4,
                        n_workers: int = 2, seed: int = 31,
                        duration: float = 1.5, conn_rate: float = 150.0,
                        churn_at: float = 0.6, churn_k: int = 2,
                        crash_at: Optional[float] = None,
                        detect_delay: float = 0.005,
                        corrupt_lookup: bool = False,
                        interval: Optional[float] = None,
                        raise_on_violation: bool = True):
    """A fleet churn (+ optional instance crash) scenario under the PCC
    monitor and per-instance invariant monitors.

    ``corrupt_lookup=True`` arms the PCC corruption drill: every backend-
    map update additionally tampers with the *version-0* table, so live
    connections stamped under it re-resolve to a different backend — the
    exact silent-state-corruption failure Concury's versioning guards
    against, and the :class:`~repro.check.PccMonitor` must catch it.

    Returns ``(pcc_monitor, passes, summary)`` where ``passes`` merges
    the PCC counters with every instance monitor's.
    """
    from ..faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
    from ..fleet import build_fleet
    from ..fleet.sharded import fleet_spec
    from ..obs import FlightRecorder, Tracer
    from ..sim.engine import Environment
    from ..sim.rng import RngRegistry
    from ..workloads.generator import TrafficGenerator
    from .pcc import watch_fleet

    env = Environment()
    registry = RngRegistry(seed)
    recorder = FlightRecorder(capacity=256)
    tracer = Tracer(env, recorder=recorder, keep_events=False)
    fleet = build_fleet(env, n_instances, n_workers, ports=[443],
                        mode="hermes", policy=policy,
                        hash_seed=registry.stream("hash").randrange(2 ** 32),
                        tracer=tracer)
    fleet.start()
    pcc = watch_fleet(fleet, interval=interval,
                      raise_on_violation=raise_on_violation)
    monitors = [watch(instance) for instance in fleet.instances]
    if corrupt_lookup:
        backend_map = fleet.backend_map
        real_update = backend_map.update

        def corrupted_update(backends):
            version = real_update(backends)
            backend_map._tables[0] = [b + 1000
                                      for b in backend_map._tables[0]]
            return version

        backend_map.update = corrupted_update

    gen = TrafficGenerator(env, fleet, registry.stream("traffic"),
                           fleet_spec(duration, conn_rate))
    faults = [FaultSpec(kind=FaultKind.BACKEND_CHURN, at=churn_at,
                        magnitude=churn_k)]
    if crash_at is not None:
        faults.append(FaultSpec(kind=FaultKind.INSTANCE_CRASH, at=crash_at,
                                target="busiest",
                                detect_delay=detect_delay))
    plan = FaultPlan(faults=tuple(faults), seed=seed)
    injector = FaultInjector(env, None, plan, tracer=tracer,
                             fleet=fleet).arm()
    gen.start()
    env.run(until=duration)
    passes = pcc.finalize()
    for monitor in monitors:
        for name, count in monitor.finalize().items():
            passes[name] = passes.get(name, 0) + count
    summary = fleet.summary()
    summary["seed"] = seed
    summary["faults_fired"] = injector.faults_fired
    summary["pcc_violations"] = len(pcc.violations)
    return pcc, passes, summary


# ---------------------------------------------------------------------------
# The full gate.
# ---------------------------------------------------------------------------

def run_check(lint: bool = True, oracles: bool = True,
              scenarios: bool = True, paths=("src",),
              allowlist=None, seed: int = 7,
              out=None) -> CheckReport:
    """Run the selected phases; never raises on findings — read the report.

    ``out`` is an optional ``print``-like callable for progress lines.
    """
    from .invariants import InvariantViolation
    from .oracles import OracleMismatch

    say = out if out is not None else (lambda *_: None)
    report = CheckReport()

    if lint:
        findings, suppressed = lint_paths(paths, allowlist=allowlist)
        report.lint_findings = findings
        report.lint_suppressed = suppressed
        say(f"lint: {len(findings)} finding(s), {suppressed} allowlisted")

    if oracles:
        try:
            report.merge_comparisons(oracle_sweep())
        except OracleMismatch as exc:
            report.problems.append(f"oracle sweep: {exc}")
        say(f"oracles: {sum(report.oracle_comparisons.values())} "
            f"comparison(s) agreed")

    if scenarios:
        for label, runner in (
            ("table3/hermes", lambda: _scenario_cell(report, seed)),
            ("sec7/exclusive",
             lambda: _scenario_crash(report, "exclusive")),
            ("sec7/hermes", lambda: _scenario_crash(report, "hermes")),
            ("fleet/stateless", lambda: _scenario_fleet(report)),
        ):
            try:
                with live_oracles() as stats:
                    runner()
                report.merge_comparisons(stats.comparisons)
                say(f"scenario {label}: ok "
                    f"({stats.total} live comparison(s))")
            except (InvariantViolation, OracleMismatch) as exc:
                report.problems.append(f"scenario {label}: {exc}")
                say(f"scenario {label}: FAILED: {exc}")
    return report


def _scenario_cell(report: CheckReport, seed: int) -> None:
    result, passes = run_monitored_cell(seed=seed)
    report.merge_passes(passes)
    report.scenarios["table3/hermes"] = {
        "completed": result.completed,
        "failed": result.failed,
        "p99_ms": result.p99_ms,
    }


def _scenario_crash(report: CheckReport, mode: str) -> None:
    _monitor, passes, summary = run_monitored_crash(mode=mode)
    report.merge_passes(passes)
    report.scenarios[f"sec7/{mode}"] = summary


def _scenario_fleet(report: CheckReport) -> None:
    _monitor, passes, summary = run_monitored_fleet()
    report.merge_passes(passes)
    report.scenarios["fleet/stateless"] = {
        "completed": summary["completed"],
        "broken": summary["broken"],
        "migrated": summary["migrated"],
        "p99_ms": summary["p99_ms"],
    }
