"""repro.perf — the continuous benchmark harness and golden determinism.

Two jobs:

1. Measure: micro benchmarks of the hot paths (engine event throughput,
   condition events, scheduler cascade, epoll wakeup fan-out,
   ``schedule_callback``) and one macro end-to-end LBServer run, written as
   canonical ``BENCH_perf.json`` at the repo root so the perf trajectory is
   tracked commit over commit (``repro perf``).
2. Prove: golden-hash fingerprints of seeded experiments
   (:mod:`repro.perf.golden`) pin the simulator's observable behaviour, so
   every fast-path change is demonstrably bit-identical.
"""

from .golden import (canonical_json, cell_fingerprint, fig13_fingerprint,
                     fingerprint, fleet_fingerprint, sec7_fingerprint)
from .harness import BenchResult, calibrate, run_benchmarks, time_bench
from .report import build_report, load_report, render_report, write_report

__all__ = [
    "canonical_json",
    "fingerprint",
    "cell_fingerprint",
    "sec7_fingerprint",
    "fig13_fingerprint",
    "fleet_fingerprint",
    "BenchResult",
    "calibrate",
    "time_bench",
    "run_benchmarks",
    "build_report",
    "write_report",
    "load_report",
    "render_report",
]
