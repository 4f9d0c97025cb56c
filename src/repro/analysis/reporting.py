"""Paper-style rendering of experiment results.

The benchmark harnesses print the same rows/series the paper reports;
these helpers format them: fixed-width tables for the tables and figures,
and the paper's ✓/✗ effectiveness marking for Table 3.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["render_table", "mark_effectiveness"]


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "", float_fmt: str = "{:.3f}") -> str:
    """A fixed-width text table."""
    formatted_rows: List[List[str]] = []
    for row in rows:
        formatted = []
        for cell in row:
            if isinstance(cell, float):
                formatted.append(float_fmt.format(cell))
            else:
                formatted.append(str(cell))
        formatted_rows.append(formatted)
    widths = [len(h) for h in headers]
    for row in formatted_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted_rows:
        lines.append("  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def mark_effectiveness(results: Dict[str, Dict[str, float]],
                       latency_slack: float = 0.5,
                       throughput_slack: float = 0.2) -> Dict[str, str]:
    """Table 3's ✓/✗ marking.

    ``results`` maps mode name -> {"avg": s, "p99": s, "thr": rps}.  A cell
    is marked ✗ when its processing time exceeds the best by more than 50%
    or its throughput falls more than 20% below the best (the paper's
    criteria).  A mode gets an overall ✗ if it has multiple ✗ cells.
    """
    if not results:
        return {}
    best_avg = min(r["avg"] for r in results.values())
    best_p99 = min(r["p99"] for r in results.values())
    best_thr = max(r["thr"] for r in results.values())
    marks = {}
    for mode, r in results.items():
        bad = 0
        if best_avg > 0 and r["avg"] > best_avg * (1 + latency_slack):
            bad += 1
        if best_p99 > 0 and r["p99"] > best_p99 * (1 + latency_slack):
            bad += 1
        if best_thr > 0 and r["thr"] < best_thr * (1 - throughput_slack):
            bad += 1
        marks[mode] = "x" if bad >= 2 else ("~" if bad == 1 else "ok")
    return marks
