"""Timing harness: calibrated, repeatable micro/macro benchmarks.

Every bench returns a :class:`BenchResult` (ops, wall seconds, unit).  The
harness also measures a *calibration* score — a fixed pure-Python arithmetic
loop — so two reports from different machines can be compared on the
normalized ratio ``ops_per_sec / calibration_ops_per_sec`` instead of raw
wall-clock numbers.  That is what the CI regression gate uses: a slower
runner slows the calibration loop and the benches alike, so the ratio is
(approximately) machine-independent while a real hot-path regression is not.

Benches are deliberately seeded and allocation-patterned identically run to
run; the only nondeterminism left is the clock.  ``repeats`` runs take the
best (minimum-noise) measurement, the standard micro-benchmark practice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["BenchResult", "calibrate", "time_bench", "run_benchmarks",
           "BENCH_NAMES"]


@dataclass
class BenchResult:
    """One benchmark measurement."""

    name: str
    #: Operations performed (events stepped, cascade calls, wakeups...).
    ops: int
    #: Best wall-clock seconds over the repeats.
    seconds: float
    #: What one op is, for the report ("events", "calls", "wakeups"...).
    unit: str = "ops"
    #: Bench-specific extras (scale parameters, derived metrics).
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.seconds if self.seconds > 0 else float("inf")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ops": self.ops,
            "seconds": round(self.seconds, 6),
            "ops_per_sec": round(self.ops_per_sec, 1),
            "unit": self.unit,
            "meta": self.meta,
        }


def calibrate(loops: int = 2_000_000, repeats: int = 3) -> float:
    """Machine-speed reference: ops/sec of a fixed arithmetic loop."""
    best = float("inf")
    for _ in range(repeats):
        acc = 0
        start = time.perf_counter()
        for i in range(loops):
            acc += i & 7
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    assert acc >= 0  # keep the loop from being optimized away
    return loops / best


def time_bench(name: str, setup: Callable[[], Any],
               run: Callable[[Any], int], unit: str = "ops",
               repeats: int = 3,
               meta: Optional[Dict[str, Any]] = None) -> BenchResult:
    """Time ``run(state)`` over fresh ``setup()`` state, keep the best run.

    ``run`` returns the number of ops it performed; a fresh state per
    repeat keeps the measurements independent (no warm heaps carrying over).
    """
    best_seconds = float("inf")
    ops = 0
    for _ in range(repeats):
        state = setup()
        start = time.perf_counter()
        ops = run(state)
        elapsed = time.perf_counter() - start
        best_seconds = min(best_seconds, elapsed)
    return BenchResult(name=name, ops=ops, seconds=best_seconds, unit=unit,
                       meta=dict(meta or {}))


#: Canonical bench registry order (also the report order).
BENCH_NAMES: Tuple[str, ...] = (
    "engine_throughput",
    "condition_allof",
    "schedule_callback",
    "scheduler_cascade",
    "epoll_wakeup_fanout",
    "macro_lb_run",
    "sweep_table3",
    "fleet_sharded",
)


def run_benchmarks(quick: bool = False,
                   only: Optional[List[str]] = None,
                   repeats: int = 3) -> Dict[str, BenchResult]:
    """Run the registered benches; returns name -> result in registry order."""
    from . import benches

    selected = list(BENCH_NAMES) if not only else [
        n for n in BENCH_NAMES if n in only]
    unknown = [] if not only else [n for n in only if n not in BENCH_NAMES]
    if unknown:
        raise ValueError(f"unknown bench(es): {', '.join(unknown)}; "
                         f"choose from {', '.join(BENCH_NAMES)}")
    results: Dict[str, BenchResult] = {}
    for name in selected:
        fn = getattr(benches, f"bench_{name}")
        results[name] = fn(quick=quick, repeats=repeats)
    return results
