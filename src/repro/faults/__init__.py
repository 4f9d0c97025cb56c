"""Deterministic fault injection and the resilience matrix.

Hermes exists because of failures: hung workers turned 30 ms requests into
440 s stalls (§2, Appendix C), and one worker crash killed >70% of a
device's connections (§7).  This package turns those pathologies — and the
wider failure surface of an eBPF-assisted L7 LB — into declarative,
replayable experiments:

- :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`: a
  JSON-serializable schedule of timed faults (hang trains, crashes with
  detection windows and restarts, slow workers, WST timestamp freezes
  and torn-read bursts, eBPF bitmap sync loss, NIC loss bursts, and the
  fleet-scope instance crashes, drains and backend churn).
- :mod:`repro.faults.injector` — :class:`FaultInjector`: arms a plan
  against a running :class:`~repro.lb.LBServer` through one uniform API,
  emitting ``fault.arm/fire/clear`` into the observability tracer and
  capturing flight-recorder dumps on crashes.
- :mod:`repro.faults.resilience` — the fault × notification-mode matrix
  (p99, hung requests, blast radius, recovery time) with the paper's
  incidents as named scenarios.

The determinism contract: an empty plan arms nothing (bit-identical to no
injector), and identical plan + seed reproduces identical results.
"""

from .._lazy import lazy_exports

__all__ = [
    "FaultArmError",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RESILIENCE_MODES",
    "ResilienceCell",
    "ResilienceMatrix",
    "SCENARIOS",
    "inject_hang",
    "render_matrix",
    "run_resilience_cell",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".injector": ("FaultArmError", "FaultInjector", "inject_hang"),
    ".plan": ("FaultKind", "FaultPlan", "FaultSpec"),
    ".resilience": ("RESILIENCE_MODES", "SCENARIOS", "ResilienceCell",
                    "ResilienceMatrix", "render_matrix",
                    "run_resilience_cell"),
})
