"""Canonical BENCH_perf.json writer and loader.

The report is canonical JSON: a fixed schema, sorted keys, stable rounding —
so two reports diff cleanly field by field.  Raw ops/sec are
machine-dependent; the *normalized* score ``ops_per_sec /
calibration_ops_per_sec`` (see :mod:`repro.perf.harness`) cancels most of
the machine-speed difference between two hosts.  The report gates
nothing: the exact ``ops`` counts are checked in tier-1, and the
wall-clock verdict on a change comes from ``bench/run.py compare``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Any, Dict, Optional

from .baseline import PRE_PR_BASELINE
from .harness import BENCH_NAMES, BenchResult

__all__ = ["build_report", "write_report", "load_report",
           "render_report", "SCHEMA"]

SCHEMA = "repro.perf/v1"

def _effective_affinity() -> Optional[int]:
    """CPUs this process may actually run on (None where unsupported)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def build_report(results: Dict[str, BenchResult],
                 calibration_ops_per_sec: float,
                 quick: bool = False) -> Dict[str, Any]:
    """Assemble the canonical report dict from bench results."""
    benches = {name: results[name].as_dict()
               for name in BENCH_NAMES if name in results}
    # 6 significant digits, not 6 decimals: scores span 6e-7
    # (sweep_table3) to 0.1, and decimals would flatten the small ones.
    # Scores come from the rounded values the report stores, so the file
    # re-derives its own block.
    calibration = round(calibration_ops_per_sec, 1)
    normalized = {}
    for name, bench in benches.items():
        score = bench["ops_per_sec"] / calibration
        normalized[name] = float(f"{score:.6g}")
    return {
        "schema": SCHEMA,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "platform": sys.platform,
            "calibration_ops_per_sec": calibration,
            "cpu_count": os.cpu_count(),
            # Effective affinity — a 64-core box pinned to 1 CPU must not
            # masquerade as 64-way (the PR-4 0.88x container artifact).
            "cpu_affinity": _effective_affinity(),
        },
        "benches": benches,
        "normalized": normalized,
        "baseline_pre_pr": PRE_PR_BASELINE,
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write canonical JSON (sorted keys, 2-space indent, trailing \\n)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} report "
                         f"(schema={report.get('schema')!r})")
    return report


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable table of one report (the CLI output)."""
    from ..analysis.reporting import render_table

    rows = []
    for name, bench in sorted(report["benches"].items()):
        rows.append([
            name,
            f"{bench['ops']:,}",
            bench["unit"],
            f"{bench['seconds']:.4f}",
            f"{bench['ops_per_sec']:,.0f}",
            f"{report['normalized'][name]:.4g}",
        ])
    cal = report["host"]["calibration_ops_per_sec"]
    title = (f"repro perf ({'quick' if report.get('quick') else 'full'}; "
             f"calibration {cal:,.0f} ops/s)")
    return render_table(
        ["bench", "ops", "unit", "best s", "ops/s", "normalized"],
        rows, title=title)
