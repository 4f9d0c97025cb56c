"""``repro check`` — the one-command correctness gate.

Three phases, all opt-in subsets via flags:

- **lint** — the nondeterminism AST pass over the sources.
- **oracles** — a deterministic offline sweep of every reference oracle
  against its fast path (the deep version lives in the hypothesis suites;
  this is the seconds-fast smoke that CI and the CLI run).
- **scenarios** — real end-to-end checked runs: one Table 3 cell
  (``run_case_cell(..., check=True)``), the §7 crash-blast scenario in
  both exclusive and Hermes modes, and the stateless fleet under backend
  churn (``run_fleet(check=True)``).

A checked run means one thing everywhere: invariant monitors, a
:func:`check_tracer` (256-event flight recorder), and
:func:`run_checked`, which runs the simulation under live differential
oracles and finalizes the monitors.

:func:`run_monitored_crash` is also the harness for the deliberate-
corruption drill: with ``corrupt_bitmap=True`` it arms
:func:`~repro.check.invariants.corrupt_bitmap`, which the bitmap↔WST
monitor must catch.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List

from .invariants import tally, watch
from .invariants import corrupt_bitmap as bitmap_drill
from .lint import Finding, lint_paths
from .oracles import (
    OracleStats,
    live_oracles,
    ref_find_nth_set_bit,
    ref_jhash_words,
    ref_popcount64,
    ref_reciprocal_scale,
)

__all__ = ["CheckReport", "check_tracer", "run_check", "run_checked",
           "run_monitored_crash", "oracle_sweep"]


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

def check_tracer():
    """The tracer every checked run builds: a 256-event flight recorder
    and no event list, so a violation carries a post-mortem dump."""
    from ..obs import FlightRecorder, Tracer

    return Tracer(recorder=FlightRecorder(capacity=256), keep_events=False)


def run_checked(env, monitor, until: float, passes=None) -> OracleStats:
    """Run ``env`` to ``until`` under :func:`live_oracles`, then finalize
    ``monitor`` (an :class:`~repro.check.invariants.InvariantMonitor` or a
    :class:`~repro.check.pcc.PccMonitor`) into ``passes`` inside the same
    context.  Returns the oracles' :class:`OracleStats`."""
    with live_oracles() as stats:
        env.run(until=until)
        monitor.finalize(passes)
    return stats


def run_monitored_crash(mode: str = "hermes", n_workers: int = 8,
                        n_connections: int = 400, seed: int = 79,
                        corrupt_bitmap: bool = False,
                        raise_on_violation: bool = True):
    """The §7 crash-blast scenario with monitors armed.

    Runs :func:`repro.experiments.sec7.blast_cell` (same seeds, same fault
    plan: crash the busiest worker at t=2.5, detect 5 ms later) with
    :func:`check_tracer` and through :func:`run_checked`.

    ``corrupt_bitmap=True`` arms the corruption drill described in the
    module docstring.  Returns ``(monitor, passes, summary,
    comparisons)``, the last the live-oracle comparisons per oracle.
    """
    from ..experiments.sec7 import blast_cell, blast_result
    from ..lb.server import NotificationMode

    cell = blast_cell(NotificationMode(mode), n_workers, n_connections, seed,
                      tracer=check_tracer())
    server = cell.server
    monitor = watch(server, raise_on_violation)
    if corrupt_bitmap and not bitmap_drill(server):
        raise ValueError(f"mode {mode!r} has no selection bitmap to corrupt")

    cell.gen.start()
    passes: Dict[str, int] = {}
    stats = run_checked(cell.env, monitor, 3.0, passes)
    summary = asdict(blast_result(cell))
    del summary["flight_events"]
    return monitor, passes, summary, stats.comparisons


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
            tally(report.oracle_comparisons, oracle_sweep())
        except OracleMismatch as exc:
            report.problems.append(f"oracle sweep: {exc}")
        say(f"oracles: {sum(report.oracle_comparisons.values())} "
            f"comparison(s) agreed")

    if scenarios:
        for label, scenario in (
            ("table3/hermes", lambda: _scenario_cell(seed)),
            ("sec7/exclusive", lambda: _scenario_crash("exclusive")),
            ("sec7/hermes", lambda: _scenario_crash("hermes")),
            ("fleet/stateless", _scenario_fleet),
        ):
            try:
                passes, comparisons, summary = scenario()
            except (InvariantViolation, OracleMismatch) as exc:
                report.problems.append(f"scenario {label}: {exc}")
                say(f"scenario {label}: FAILED: {exc}")
                continue
            tally(report.monitor_passes, passes)
            tally(report.oracle_comparisons, comparisons)
            report.scenarios[label] = summary
            say(f"scenario {label}: ok "
                f"({sum(comparisons.values())} live comparison(s))")
    return report


# Each scenario returns ``(passes, comparisons, summary)``.

def _scenario_cell(seed: int):
    from ..experiments.common import run_case_cell
    from ..lb.server import NotificationMode

    result = run_case_cell(NotificationMode.HERMES, "case2", "light",
                           n_workers=8, duration=2.0, seed=seed, check=True)
    return result.passes, result.comparisons, {
        "completed": result.completed,
        "failed": result.failed,
        "p99_ms": result.p99_ms,
    }


def _scenario_crash(mode: str):
    _monitor, passes, summary, comparisons = run_monitored_crash(mode=mode)
    return passes, comparisons, summary


def _scenario_fleet():
    from ..fleet import run_fleet

    run = run_fleet(check=True)
    summary = run.doc
    return run.passes, run.comparisons, {
        "completed": summary["completed"],
        "broken": summary["broken"],
        "migrated": summary["migrated"],
        "p99_ms": summary["p99_ms"],
    }
