"""The unified Scenario API: every experiment as a registry of seeded cells.

Historically each table/figure shipped its own ``run_*`` entry point with
its own signature and seeding convention, and every grid ran serially
inside that function.  This module replaces that zoo with one typed
contract:

- :class:`CellSpec` — one independent unit of work: ``(experiment, key,
  params, seed)``.  Params are JSON-safe, the seed is explicit, and a
  cell's identity (its content-address in the sweep cache) is exactly the
  canonical JSON of those fields plus the code fingerprint.
- :class:`ExperimentSpec` — an experiment is a *pure* pipeline::

      cells(seed, overrides) -> (CellSpec, ...)     # enumerate the grid
      run_cell(cell)         -> JSON document        # one seeded cell
      merge(cells, docs)     -> merged JSON document # enumeration order
      render(merged)         -> str                  # the paper table

  ``run_cell`` must be deterministic in the cell alone (no ambient
  state), which is what lets :mod:`repro.sweep` execute cells across
  processes and memoize them while keeping the merged output
  byte-identical to a serial run.

  ``overrides`` may carry only the keys the spec declares in
  ``tunables``; anything else is refused, so a typo fails loudly instead
  of silently running the full-scale grid.

Every experiment module registers its spec at import time;
:func:`get`/:func:`load_all` import lazily so ``repro list`` stays fast.
Each module also keeps its typed ``run_*`` function: the cells are built
on it, and callers that need arguments a JSON cell cannot carry (a
``FlightRecorder``, a ``NotificationMode``) call it directly.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

__all__ = [
    "CellSpec",
    "ExperimentSpec",
    "EXPERIMENT_MODULES",
    "register",
    "get",
    "names",
    "load_all",
    "describe",
    "simple_experiment",
    "lined_experiment",
    "concat_rendered",
    "normalize_doc",
]

#: Experiment modules (``repro.experiments.<name>``) the registry loads.
#: This is the single source of truth for the CLI's ``EXPERIMENTS`` list.
EXPERIMENT_MODULES: Tuple[str, ...] = (
    "table1", "table2", "table3", "table4", "table5",
    "fig3", "fig45", "fig7", "fig11", "fig12", "fig13", "fig14", "fig15",
    "figa4", "figa5", "sec7", "appc", "ablations", "pool_capacity",
    "isolation", "scaling", "resilience", "prequal_ablation", "fleet_scale",
    "splice_crossover", "fuzz_regressions",
)


def normalize_doc(doc: Any) -> Any:
    """Round-trip ``doc`` through canonical JSON.

    Tuples collapse to lists and non-string dict keys become strings —
    exactly what reading the doc back from the sweep cache produces — so
    ``merge`` sees identical structures whether a cell was executed or
    memoized.
    """
    return json.loads(json.dumps(doc, sort_keys=True))


@dataclass(frozen=True)
class CellSpec:
    """One independently runnable, independently seeded unit of work."""

    experiment: str
    #: Stable id inside the experiment, e.g. ``"case2/medium/hermes"``.
    key: str
    #: JSON-safe runner parameters.
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def identity(self) -> Dict[str, Any]:
        """The JSON-safe identity the cache key is derived from."""
        return {
            "experiment": self.experiment,
            "key": self.key,
            "params": normalize_doc(self.params),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: enumerate, run, merge, render."""

    name: str
    title: str
    #: ``cells(seed, overrides) -> Tuple[CellSpec, ...]``
    cells: Callable[[int, Dict[str, Any]], Tuple[CellSpec, ...]]
    #: ``run_cell(cell) -> JSON document`` — deterministic, process-safe.
    run_cell: Callable[[CellSpec], Dict[str, Any]]
    #: ``merge(cells, docs) -> merged JSON document`` (enumeration order).
    merge: Callable[[Sequence[CellSpec], Sequence[Dict[str, Any]]],
                    Dict[str, Any]]
    #: ``render(merged) -> str`` — the human-readable paper table.
    render: Callable[[Dict[str, Any]], str]
    default_seed: int = 7
    #: Tunable name -> one-line description: exactly the override keys
    #: ``cells``/``run_cell`` read (``repro list`` shows them; any other
    #: key is refused by :meth:`check_overrides`).
    tunables: Dict[str, str] = field(default_factory=dict)

    def check_overrides(self, overrides: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` if ``overrides`` has a key nothing reads."""
        unknown = sorted(set(overrides) - set(self.tunables))
        if unknown:
            accepted = ", ".join(sorted(self.tunables)) or "none"
            raise ValueError(
                f"experiment {self.name!r} does not read override(s) "
                f"{', '.join(unknown)}; accepted: {accepted}")

    def run(self, seed: Optional[int] = None,
            overrides: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Serial convenience path: enumerate, run, merge in-process."""
        self.check_overrides(overrides or {})
        resolved = self.default_seed if seed is None else seed
        cells = self.cells(resolved, dict(overrides or {}))
        docs = [normalize_doc(self.run_cell(cell)) for cell in cells]
        return self.merge(cells, docs)


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec`` (idempotent per name; last registration wins)."""
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ExperimentSpec:
    """Resolve an experiment by name, importing its module if needed."""
    if name not in _REGISTRY:
        if name in EXPERIMENT_MODULES:
            importlib.import_module(f"repro.experiments.{name}")
    if name not in _REGISTRY:
        raise KeyError(
            f"no experiment {name!r} registered; known modules: "
            f"{', '.join(EXPERIMENT_MODULES)}")
    return _REGISTRY[name]


def load_all() -> Dict[str, ExperimentSpec]:
    """Import every experiment module; return the full registry."""
    for name in EXPERIMENT_MODULES:
        importlib.import_module(f"repro.experiments.{name}")
    return dict(_REGISTRY)


def names() -> Tuple[str, ...]:
    """All registrable experiment names, in canonical order."""
    return EXPERIMENT_MODULES


def describe(name: str) -> Dict[str, Any]:
    """Machine-readable metadata for ``repro list --json``."""
    spec = get(name)
    cells = spec.cells(spec.default_seed, {})
    return {
        "name": spec.name,
        "title": spec.title,
        "default_seed": spec.default_seed,
        "n_cells": len(cells),
        "cell_keys": [cell.key for cell in cells],
        "tunables": dict(spec.tunables),
    }


# ---------------------------------------------------------------------------
# Helper for experiments that run as a single cell.
# ---------------------------------------------------------------------------

def simple_experiment(name: str, title: str,
                      runner: Callable[[int, Dict[str, Any]],
                                       Dict[str, Any]],
                      default_seed: int = 7,
                      tunables: Optional[Mapping[str, str]] = None,
                      ) -> ExperimentSpec:
    """Register an experiment whose whole grid is one cell.

    ``runner(seed, params)`` returns the cell document; it must include a
    ``"rendered"`` string (the experiment's printed form).  The overrides
    become the cell's params, so ``tunables`` names the keys ``runner``
    reads.
    """
    def cells(seed: int, overrides: Dict[str, Any]) -> Tuple[CellSpec, ...]:
        return (CellSpec(experiment=name, key="all", params=dict(overrides),
                         seed=seed),)

    def run_cell(cell: CellSpec) -> Dict[str, Any]:
        return runner(cell.seed, dict(cell.params))

    def merge(cells_: Sequence[CellSpec],
              docs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        return dict(docs[0])

    def render(merged: Dict[str, Any]) -> str:
        return merged["rendered"]

    return register(ExperimentSpec(
        name=name, title=title, cells=cells, run_cell=run_cell,
        merge=merge, render=render, default_seed=default_seed,
        tunables=dict(tunables or {})))


def concat_rendered(docs: Sequence[Dict[str, Any]]) -> str:
    """Join per-cell ``rendered`` lines in enumeration order."""
    return "\n".join(doc["rendered"] for doc in docs)


def lined_experiment(name: str, title: str,
                     enumerate_cells: Callable[[int, Dict[str, Any]],
                                               Tuple[CellSpec, ...]],
                     run_cell: Callable[[CellSpec], Dict[str, Any]],
                     default_seed: int = 7,
                     header: str = "",
                     tunables: Optional[Mapping[str, str]] = None,
                     ) -> ExperimentSpec:
    """Register a multi-cell experiment rendered as per-cell lines.

    Each cell document carries its own ``"rendered"`` line; the merged
    document keys cell data by cell key and concatenates the lines in
    enumeration order (so parallel execution cannot reorder output).
    """
    def merge(cells_: Sequence[CellSpec],
              docs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        rendered = concat_rendered(docs)
        if header:
            rendered = header + "\n" + rendered
        return {
            "cells": {cell.key: doc for cell, doc in zip(cells_, docs)},
            "rendered": rendered,
        }

    def render(merged: Dict[str, Any]) -> str:
        return merged["rendered"]

    return register(ExperimentSpec(
        name=name, title=title, cells=enumerate_cells, run_cell=run_cell,
        merge=merge, render=render, default_seed=default_seed,
        tunables=dict(tunables or {})))
