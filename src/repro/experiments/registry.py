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
      claims(merged)         -> (Claim, ...)         # the paper verdicts

  ``run_cell`` must be deterministic in the cell alone (no ambient
  state), which is what lets :mod:`repro.sweep` execute cells across
  processes and memoize them while keeping the merged output
  byte-identical to a serial run.

  ``claims`` reads only the merged document, so a sweep answered from
  the cache re-checks every verdict without running a cell.  A claim
  whose cells are not in the grid is left out, not failed.

  ``overrides`` may carry only the keys the spec declares in
  ``tunables``; anything else is refused, so a typo fails loudly instead
  of silently running the full-scale grid.

Every experiment module registers its spec at import time;
:func:`get`/:func:`load_all` import lazily so ``repro list`` stays fast.
:meth:`ExperimentSpec.run` (or ``python -m repro experiment <name>``) is
the one way to run a grid.  A module keeps a typed function only for one
cell, which its ``run_cell`` calls and which callers that need an
argument a JSON cell cannot carry (a ``FlightRecorder``) may call
directly.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

__all__ = [
    "CellSpec",
    "Claim",
    "check_claims",
    "no_claims",
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
    "figa4", "figa5", "sec7", "appc", "ablations", "baselines",
    "pool_capacity", "isolation", "scaling", "resilience",
    "prequal_ablation", "fleet_scale", "splice_crossover",
    "fuzz_regressions",
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
class Claim:
    """One paper verdict checked against a merged document."""

    name: str
    holds: bool
    #: The measured numbers the verdict rests on.
    detail: str

    def line(self) -> str:
        status = "holds" if self.holds else "FAILS"
        return f"claim {self.name}: {status} ({self.detail})"


#: ``(name, keys, check)``: ``check`` receives ``table[key]`` for each key
#: in order and returns ``(holds, detail)``.
Rule = Tuple[str, Sequence[str], Callable[..., Tuple[bool, str]]]


def check_claims(table: Mapping[str, Any],
                 rules: Sequence[Rule]) -> Tuple[Claim, ...]:
    """Evaluate every rule whose keys are all in ``table``.

    A rule with a missing key is left out of the result: its cells were
    not in the grid, so there is nothing to judge.
    """
    claims: List[Claim] = []
    for name, keys, check in rules:
        if all(key in table for key in keys):
            holds, detail = check(*(table[key] for key in keys))
            claims.append(Claim(name, bool(holds), detail))
    return tuple(claims)


def no_claims(merged: Dict[str, Any]) -> Tuple[Claim, ...]:
    """The default: an experiment that checks no paper verdict."""
    return ()


#: ``claims(merged) -> Tuple[Claim, ...]``, pure in the merged document.
ClaimsFn = Callable[[Dict[str, Any]], Tuple[Claim, ...]]


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
    claims: ClaimsFn = no_claims

    def check_overrides(self, overrides: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` if ``overrides`` has a key nothing reads,
        or a ``modes``/``scenarios`` list names one that does not exist."""
        unknown = sorted(set(overrides) - set(self.tunables))
        if unknown:
            accepted = ", ".join(sorted(self.tunables)) or "none"
            raise ValueError(
                f"experiment {self.name!r} does not read override(s) "
                f"{', '.join(unknown)}; accepted: {accepted}")
        if "modes" in overrides:
            from ..lb.server import NotificationMode
            _check_names("modes", overrides["modes"],
                         [mode.value for mode in NotificationMode])
        if "scenarios" in overrides:
            from ..faults.resilience import SCENARIOS
            _check_names("scenarios", overrides["scenarios"], list(SCENARIOS))

    def run(self, seed: Optional[int] = None,
            overrides: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The merged document of a serial, uncached
        :func:`~repro.sweep.run_sweep` of this experiment."""
        from ..sweep import run_sweep
        return run_sweep(self.name, seed=seed, overrides=overrides).merged


def _check_names(key: str, value: Any, choices: Sequence[str]) -> None:
    """Refuse a ``key`` override that is not a list of ``choices``."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"override {key} must be a JSON list, e.g. "
                         f"{key}=[\"{choices[0]}\"]; got {value!r}")
    unknown = [name for name in value if name not in choices]
    if unknown:
        raise ValueError(
            f"unknown {key[:-1]}(s) {', '.join(map(str, unknown))}; "
            f"choose from {', '.join(choices)}")


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
                      claims: ClaimsFn = no_claims,
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
        tunables=dict(tunables or {}), claims=claims))


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
                     claims: ClaimsFn = no_claims,
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
        tunables=dict(tunables or {}), claims=claims))
