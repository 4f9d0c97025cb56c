"""Registry adapter for the fault × mode resilience matrix.

The implementation lives in :mod:`repro.faults.resilience`; this module
exposes it through the unified experiment registry so the matrix can be
decomposed into independent (scenario, mode) cells, swept in parallel,
and memoized like every table and figure.  ``get("resilience").run(seed,
overrides)`` is the one way to run the matrix; its merged document is the
canonical payload :meth:`ResilienceMatrix.to_json` writes, and
:func:`matrix_from_doc` turns it back into a :class:`ResilienceMatrix`.
"""

from __future__ import annotations

from ..faults.resilience import (RESILIENCE_MODES, SCENARIOS,
                                 ResilienceCell, ResilienceMatrix,
                                 render_matrix, run_resilience_cell)
from ..lb.server import NotificationMode
from .registry import CellSpec, ExperimentSpec, register

__all__ = ["matrix_from_doc"]


def _cells(seed, overrides):
    scenarios = tuple(overrides.get("scenarios", tuple(SCENARIOS)))
    modes = tuple(overrides.get("modes",
                                tuple(m.value for m in RESILIENCE_MODES)))
    n_workers = overrides.get("n_workers", 8)
    return tuple(
        CellSpec("resilience", f"{scenario}/{mode}",
                 {"scenario": scenario, "mode": mode,
                  "n_workers": n_workers}, seed)
        for scenario in scenarios for mode in modes)


def _run_cell(cell):
    p = cell.params
    result = run_resilience_cell(p["scenario"],
                                 NotificationMode(p["mode"]),
                                 seed=cell.seed, n_workers=p["n_workers"])
    return result.to_dict()


def _merge(cells, docs):
    # The matrix payload mirrors ResilienceMatrix.to_json exactly so the
    # CLI writes byte-identical output whichever path produced it.
    return {"seed": cells[0].seed if cells else 0, "cells": list(docs)}


def matrix_from_doc(merged: dict) -> ResilienceMatrix:
    cells = tuple(ResilienceCell(**doc) for doc in merged["cells"])
    return ResilienceMatrix(cells=cells, seed=merged["seed"])


def _render(merged: dict) -> str:
    return render_matrix(matrix_from_doc(merged))


register(ExperimentSpec(
    name="resilience", title="Fault × mode resilience matrix",
    cells=_cells, run_cell=_run_cell, merge=_merge,
    render=_render, default_seed=7,
    tunables={
        "scenarios": "scenario subset (default: all four)",
        "modes": "mode subset (default: exclusive/reuseport/hermes/"
                 "prequal/splice)",
        "n_workers": "workers behind each device",
    }))
