"""Table 3 — the headline: 4 cases × 3 modes × 3 loads.

For every (case, load) cell, the three notification modes replay identical
traffic on a fresh device; we report average latency, P99 latency, and
throughput, and apply the paper's ✓/✗ effectiveness marking (✗ when
processing time exceeds the best by >50% or throughput trails by >20%,
in multiple cells).

Expected shape (paper):
- Case 1: exclusive ✗ (dispatch overhead + LIFO concentration).
- Case 2: Hermes > exclusive > reuseport (busy/hung-worker avoidance).
- Case 3: exclusive ✗ (long-lived connection concentration).
- Case 4: reuseport ✗ (stateless hashing onto overloaded workers);
  Hermes ≈ exclusive, Hermes slightly behind at heavy (closed-loop lag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.reporting import mark_effectiveness, render_table
from ..lb.server import NotificationMode
from .common import MODES_UNDER_TEST, CellResult, run_case_cell
from .registry import CellSpec, Claim, ExperimentSpec, check_claims, register

__all__ = ["Table3Result", "render_table3", "TABLE3_PORTS",
           "CASE_ORDER", "LOAD_ORDER", "table3_result_from_doc"]

#: Multi-tenant port plan: 200 tenant ports, exposing exclusive's
#: O(#ports) dispatch cost.
TABLE3_PORTS: Tuple[int, ...] = tuple(range(20001, 20201))

CASE_ORDER = ("case1", "case2", "case3", "case4")
LOAD_ORDER = ("light", "medium", "heavy")

#: Simulated seconds of traffic generation per cell.  High-rate cases use
#: shorter windows to bound wall-clock cost without losing the shape.
_DURATIONS = {"case1": 2.5, "case2": 4.0, "case3": 3.0, "case4": 6.0}


@dataclass
class Table3Result:
    """All cells: (case, load, mode) -> CellResult, plus ✓/✗ marks."""

    cells: Dict[Tuple[str, str, str], CellResult]
    marks: Dict[Tuple[str, str, str], str]

    def mode_mark(self, case: str, mode: str) -> str:
        """The paper's per-case verdict: ✗ if a mode is marked bad in any
        load, or never performs best."""
        bad = sum(1 for (c, _load, m), mark in self.marks.items()
                  if c == case and m == mode and mark == "x")
        return "x" if bad >= 1 else "ok"

    def loads_present(self) -> Tuple[str, ...]:
        present = {load for (_case, load, _mode) in self.cells}
        return tuple(load for load in LOAD_ORDER if load in present)


def _table3_cells(seed: int, overrides: Dict) -> Tuple[CellSpec, ...]:
    """Enumerate the grid: case × load × mode, one cell each.

    All cells share the base seed — ``run_spec`` derives the traffic
    stream from the workload name, so every mode of one (case, load)
    replays byte-identical traffic (the A/B discipline Table 3 needs).
    """
    cases = tuple(overrides.get("cases", CASE_ORDER))
    loads = tuple(overrides.get("loads", LOAD_ORDER))
    modes = tuple(overrides.get("modes",
                                [m.value for m in MODES_UNDER_TEST]))
    durations = dict(_DURATIONS)
    durations.update(overrides.get("durations", {}))
    scale = overrides.get("duration_scale", 1.0)
    base = {"n_workers": overrides.get("n_workers", 8),
            "ports": list(overrides.get("ports", TABLE3_PORTS)),
            "settle": overrides.get("settle", 1.5)}
    return tuple(
        CellSpec("table3", f"{case}/{load}/{mode}",
                 dict(base, case=case, load=load, mode=mode,
                      duration=durations.get(case, 3.0) * scale),
                 seed)
        for case in cases for load in loads for mode in modes)


def _table3_run_cell(cell: CellSpec) -> Dict:
    p = cell.params
    result = run_case_cell(
        NotificationMode(p["mode"]), p["case"], p["load"],
        n_workers=p["n_workers"], duration=p["duration"],
        ports=tuple(p["ports"]), seed=cell.seed, settle=p["settle"])
    return result.to_doc()


def _table3_merge(cells: Sequence[CellSpec],
                  docs: Sequence[Dict]) -> Dict:
    """Effectiveness marks need all modes of a (case, load) together, so
    marking happens here rather than per cell."""
    cell_map: Dict[str, Dict] = {}
    grouped: Dict[Tuple[str, str], Dict[str, Dict]] = {}
    for cell, doc in zip(cells, docs):
        case, load, mode = cell.key.split("/")
        cell_map[cell.key] = doc
        grouped.setdefault((case, load), {})[mode] = doc
    marks: Dict[str, str] = {}
    for (case, load), by_mode in grouped.items():
        cell_marks = mark_effectiveness({
            mode: {"avg": d["avg_ms"], "p99": d["p99_ms"],
                   "thr": d["throughput_rps"]}
            for mode, d in by_mode.items()})
        for mode, mark in cell_marks.items():
            marks[f"{case}/{load}/{mode}"] = mark
    return {"cells": cell_map, "marks": marks}


def table3_result_from_doc(merged: Dict) -> Table3Result:
    """Rebuild the typed result object from a merged sweep document."""
    cells = {tuple(key.split("/")): CellResult.from_doc(doc)
             for key, doc in merged["cells"].items()}
    marks = {tuple(key.split("/")): mark
             for key, mark in merged["marks"].items()}
    return Table3Result(cells=cells, marks=marks)


def _versus(case: str, load: str, mode: str, rival: str,
            metric: str = "avg", factor: float = 1.0, above: bool = False):
    """Rule: ``mode``'s latency ``metric`` is below (or ``above``)
    ``factor`` × ``rival``'s in one (case, load) cell."""
    field_ = f"{metric}_ms"
    scale = "" if factor == 1.0 else f"{factor:g}x_"
    name = (f"{case}_{load}_{mode}_{metric}_"
            f"{'above' if above else 'below'}_{scale}{rival}")

    def check(ours: Dict, theirs: Dict):
        bound = factor * theirs[field_]
        holds = ours[field_] > bound if above else ours[field_] < bound
        return holds, (f"{mode} {ours[field_]:.2f} ms vs "
                       f"{scale.replace('_', ' ')}{rival} {bound:.2f} ms")
    return name, [f"{case}/{load}/{mode}", f"{case}/{load}/{rival}"], check


def _marked(case: str, mode: str, mark: str):
    """Rule: the paper's per-case ✓/✗ verdict for ``mode`` in ``case``."""
    def check(verdict: str):
        return verdict == mark, f"{mode} marked {verdict} in {case}"
    return f"{case}_{mode}_marked_{mark}", [f"{case}/{mode}"], check


def _claims(merged: Dict) -> Tuple[Claim, ...]:
    """Table 3's verdicts.  A per-case ✓/✗ mark is judged only when every
    load and mode of the case ran, since marks compare modes per load."""
    result = table3_result_from_doc(merged)
    table: Dict = dict(merged["cells"])
    modes = [m.value for m in MODES_UNDER_TEST]
    for case in CASE_ORDER:
        if all((case, load, mode) in result.cells
               for load in LOAD_ORDER for mode in modes):
            for mode in modes:
                table[f"{case}/{mode}"] = result.mode_mark(case, mode)
    rules = [_versus("case1", load, "hermes", "exclusive", metric)
             for load in ("light", "medium") for metric in ("avg", "p99")]
    rules += [_marked("case1", "exclusive", "x"),
              _marked("case1", "hermes", "ok")]
    rules += [_versus("case2", load, "hermes", "reuseport")
              for load in LOAD_ORDER]
    rules += [_versus("case2", "medium", "hermes", "exclusive"),
              _marked("case2", "hermes", "ok"),
              _marked("case2", "reuseport", "x")]
    rules += [_versus("case3", load, "hermes", "exclusive")
              for load in LOAD_ORDER]
    rules += [_versus("case3", "heavy", "hermes", "reuseport", "p99", 1.15),
              _marked("case3", "hermes", "ok")]
    for load in ("medium", "heavy"):
        rules += [_versus("case4", load, "reuseport", "hermes",
                          factor=1.5, above=True),
                  _versus("case4", load, "hermes", "exclusive",
                          factor=1.4)]
    rules += [_marked("case4", "reuseport", "x"),
              _marked("case4", "hermes", "ok")]
    rules.append((
        "hermes_never_marked_x", [f"{case}/hermes" for case in CASE_ORDER],
        lambda *verdicts: ("x" not in verdicts,
                           f"hermes marks {list(verdicts)} over "
                           f"{', '.join(CASE_ORDER)}")))
    return check_claims(table, rules)


register(ExperimentSpec(
    name="table3", title="Headline grid: case x mode x load",
    cells=_table3_cells, run_cell=_table3_run_cell, merge=_table3_merge,
    render=lambda merged: render_table3(table3_result_from_doc(merged)),
    default_seed=11, claims=_claims,
    tunables={"cases": "case subset (default: case1..case4)",
              "loads": "load subset (default: light, medium, heavy)",
              "modes": "mode subset (default: exclusive, reuseport, hermes)",
              "durations": "case -> traffic duration (s)",
              "duration_scale": "multiplier on every case's duration",
              "n_workers": "workers behind the device",
              "ports": "listening ports (default: 200 tenant ports)",
              "settle": "drain time after traffic stops (s)"}))


def render_table3(result: Table3Result) -> str:
    """Paper-layout rows: one row per (case, mode) for every mode the grid
    ran (in :class:`NotificationMode` order), three numeric cells per load
    present in the result."""
    loads = result.loads_present() or LOAD_ORDER
    headers = ["Case", "Mode"]
    for load in loads:
        initial = load[0].upper()
        headers.extend([f"{initial}.avg(ms)", f"{initial}.p99",
                        f"{initial}.thr(k)"])
    headers.append("verdict")
    rows: List[List] = []
    present = {mode for (_case, _load, mode) in result.cells}
    mode_names = [m.value for m in NotificationMode if m.value in present]
    for case in CASE_ORDER:
        if not any(key[0] == case for key in result.cells):
            continue
        for mode in mode_names:
            if (case, loads[0], mode) not in result.cells:
                continue
            row: List = [case, mode]
            for load in loads:
                cell = result.cells[(case, load, mode)]
                mark = result.marks[(case, load, mode)]
                suffix = " (x)" if mark == "x" else ""
                row.extend([f"{cell.avg_ms:.2f}{suffix}",
                            f"{cell.p99_ms:.2f}",
                            f"{cell.throughput_rps / 1e3:.2f}"])
            row.append(result.mode_mark(case, mode))
            rows.append(row)
    return render_table(headers, rows,
                        title="Table 3: case x mode x load "
                              "(avg/P99 latency, throughput)")
