"""The sweep orchestrator: parallel, cached, deterministically merged.

``run_sweep`` decomposes an experiment (via its registered
:class:`~repro.experiments.registry.ExperimentSpec`) into independent
seeded cells, satisfies as many as possible from the
:class:`~repro.sweep.cache.CellCache`, executes the rest through
:func:`repro.fanout.fan_out` (serially with ``jobs=1``, else across a
process pool of at most one worker per pending cell), and merges the
documents **in enumeration order**.

The determinism contract carried over from the fast-path PR: the merged
output of ``--jobs N`` is byte-identical to ``--jobs 1``.  Three
mechanisms enforce it:

1. cells draw from per-cell RNG streams (the seed is part of the cell),
   so execution order cannot leak into any cell's own result;
2. results are collected into a slot per cell and merged in enumeration
   order, never in completion order;
3. every document — fresh or cached — is normalized through a canonical
   JSON round-trip before merging, so a memoized cell is
   indistinguishable from a recomputed one.

:func:`run_cells` is that cache-then-fan-out loop on its own, for any
top-level ``fn(cell) -> doc``; ``run_fuzz`` runs its scenarios through
it too.  Worker processes receive only the function and the
:class:`CellSpec`, and a sweep cell re-resolves its runner from the
registry by name, so nothing unpicklable crosses the process boundary.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..experiments import registry as _registry
from ..experiments.registry import CellSpec, normalize_doc
from ..fanout import fan_out
from .cache import CellCache
from .fingerprint import code_fingerprint

__all__ = ["CellRun", "SweepResult", "run_cells", "run_sweep"]

#: Schema marker of the canonical sweep document.
SWEEP_SCHEMA = "repro.sweep/v1"


@dataclass(frozen=True)
class CellRun:
    """One cell's outcome inside a sweep."""

    cell: CellSpec
    doc: Dict[str, Any]
    #: True when the document came from the cache.
    cached: bool
    #: Wall-clock seconds spent executing (0.0 for cache hits).
    seconds: float


@dataclass
class SweepResult:
    """Everything one sweep produced."""

    experiment: str
    seed: int
    jobs: int
    runs: Tuple[CellRun, ...]
    merged: Dict[str, Any]
    wall_seconds: float
    cache_stats: Dict[str, int]

    @property
    def executed(self) -> int:
        return sum(1 for run in self.runs if not run.cached)

    @property
    def cached(self) -> int:
        return sum(1 for run in self.runs if run.cached)

    def document(self) -> Dict[str, Any]:
        """The canonical, run-order-independent sweep document.

        Deliberately excludes timings, job counts, and cache accounting —
        everything that varies between byte-identical reruns.
        """
        return {
            "schema": SWEEP_SCHEMA,
            "experiment": self.experiment,
            "seed": self.seed,
            "cells": [
                {"key": run.cell.key,
                 "params": normalize_doc(run.cell.params),
                 "seed": run.cell.seed,
                 "doc": run.doc}
                for run in self.runs
            ],
            "merged": self.merged,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.document(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """The experiment's rendering of the merged document, then one
        line per paper claim (claims never enter :meth:`document`)."""
        spec = _registry.get(self.experiment)
        lines = [spec.render(self.merged)]
        lines.extend(claim.line() for claim in spec.claims(self.merged))
        return "\n".join(lines)


def _execute_cell(cell: CellSpec, check: bool = False) -> Dict[str, Any]:
    """Worker-side cell execution (top-level so it pickles).

    The runner sees a copy of the params, so the cell that enters the
    sweep document is the one that was enumerated.  ``check`` arms live
    differential oracles around the cell (``--check``); checked
    execution returns the identical doc or raises ``OracleMismatch``.
    """
    spec = _registry.get(cell.experiment)
    cell = CellSpec(cell.experiment, cell.key, dict(cell.params), cell.seed)
    if not check:
        return spec.run_cell(cell)
    from ..check import live_oracles
    with live_oracles():
        return spec.run_cell(cell)


def _timed(payload: Tuple[Callable[[CellSpec], Dict[str, Any]], CellSpec]
           ) -> Tuple[Dict[str, Any], float]:
    """Fan-out entry point: ``fn(cell)``, normalized, and its seconds."""
    fn, cell = payload
    start = time.perf_counter()
    doc = normalize_doc(fn(cell))
    return doc, time.perf_counter() - start


def run_cells(cells: Sequence[CellSpec],
              fn: Callable[[CellSpec], Dict[str, Any]],
              jobs: int = 1,
              cache: Optional[CellCache] = None,
              ) -> Tuple[List[Dict[str, Any]], Dict[int, float]]:
    """Every cell's document, from ``cache`` or from ``fn(cell)``.

    Cache hits are looked up first; the misses fan out through
    :func:`repro.fanout.fan_out` (``fn`` must be top-level when
    ``jobs > 1``) and are written back as they finish.  Returns the
    normalized documents in enumeration order and ``{index: seconds}``
    for the cells that ran.
    """
    keys: List[str] = []
    docs: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    if cache is not None:
        code = code_fingerprint()
        keys = [cache.key_for(cell, code) for cell in cells]
        # normalize_doc(None) is None: a miss stays a miss.
        docs = [normalize_doc(cache.get(key)) for key in keys]
    pending = [index for index, doc in enumerate(docs) if doc is None]
    ran: Dict[int, float] = {}

    def finish(slot: int, result: Tuple[Dict[str, Any], float]) -> None:
        index = pending[slot]
        docs[index], ran[index] = result
        if cache is not None:
            cache.put(keys[index], cells[index], docs[index])

    fan_out(_timed, [(fn, cells[index]) for index in pending], jobs,
            on_done=finish)
    return docs, ran  # type: ignore[return-value]


def run_sweep(experiment: str,
              seed: Optional[int] = None,
              jobs: int = 1,
              cache: Union[CellCache, str, os.PathLike, None] = None,
              overrides: Optional[Dict[str, Any]] = None,
              check: bool = False,
              ) -> SweepResult:
    """Run one experiment as a sweep of independent cells.

    Parameters
    ----------
    experiment:
        A registered experiment name (see ``repro list``).
    seed:
        Base seed threaded into every cell; ``None`` uses the
        experiment's registered default.
    jobs:
        Worker processes.  ``1`` runs in-process (no pool is loaded).
    cache:
        ``None`` disables memoization; a directory or
        :class:`CellCache` memoizes cells there.
    overrides:
        Experiment-specific grid overrides (scales, subsets) merged into
        every cell's params by the enumerator.  Overridden cells hash
        differently, so they never alias full-scale cached cells.  A key
        outside the experiment's ``tunables`` raises ``ValueError``.
    check:
        Arm live differential oracles around every *executed* cell (a
        checked run is byte-identical or raises).  Cache hits skip
        execution and therefore skip the check; pass no ``cache`` to
        check the full grid.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    spec = _registry.get(experiment)
    spec.check_overrides(overrides or {})
    resolved_seed = spec.default_seed if seed is None else seed
    cells = tuple(spec.cells(resolved_seed, dict(overrides or {})))
    store = (cache if cache is None or isinstance(cache, CellCache)
             else CellCache(cache))

    start = time.perf_counter()
    docs, ran = run_cells(cells, partial(_execute_cell, check=check), jobs,
                          store)
    # Merge strictly in enumeration order: worker completion order (and
    # which cells were memoized) must never reach the merged document.
    merged = spec.merge(cells, docs)
    wall = time.perf_counter() - start
    runs = tuple(
        CellRun(cell=cell, doc=docs[index], cached=index not in ran,
                seconds=ran.get(index, 0.0))
        for index, cell in enumerate(cells))
    return SweepResult(
        experiment=experiment, seed=resolved_seed, jobs=jobs, runs=runs,
        merged=normalize_doc(merged), wall_seconds=wall,
        cache_stats=store.stats if store is not None else {})
