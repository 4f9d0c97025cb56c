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

Worker processes receive only ``(experiment, key, params, seed)`` and
re-resolve the runner from the registry by name, so nothing
unpicklable crosses the process boundary.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..experiments import registry as _registry
from ..experiments.registry import CellSpec, normalize_doc
from ..fanout import fan_out
from .cache import DEFAULT_CACHE_DIR, CellCache
from .fingerprint import code_fingerprint

__all__ = ["CellRun", "SweepResult", "run_sweep"]

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


def _execute_cell(payload: Tuple[str, str, Dict[str, Any], int, bool]
                  ) -> Tuple[str, Dict[str, Any], float]:
    """Worker-side cell execution (top-level so it pickles).

    The fifth payload element arms live differential oracles around the
    cell (``repro check``'s ``--check`` mode); checked execution returns
    the identical doc or raises ``OracleMismatch``.
    """
    experiment, key, params, seed = payload[:4]
    check = payload[4] if len(payload) > 4 else False
    spec = _registry.get(experiment)
    cell = CellSpec(experiment=experiment, key=key, params=params, seed=seed)
    start = time.perf_counter()
    if check:
        from ..check import live_oracles
        with live_oracles():
            doc = spec.run_cell(cell)
    else:
        doc = spec.run_cell(cell)
    return key, normalize_doc(doc), time.perf_counter() - start


def _resolve_cache(cache: Union[CellCache, str, None, bool]
                   ) -> Optional[CellCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return CellCache(DEFAULT_CACHE_DIR)
    if isinstance(cache, CellCache):
        return cache
    return CellCache(cache)


def run_sweep(experiment: str,
              seed: Optional[int] = None,
              jobs: int = 1,
              cache: Union[CellCache, str, None, bool] = None,
              overrides: Optional[Dict[str, Any]] = None,
              force: bool = False,
              tracer=None,
              progress: Optional[Callable[..., None]] = None,
              check: bool = False,
              ) -> SweepResult:
    """Run one experiment as a sweep of independent cells.

    Parameters
    ----------
    experiment:
        A registered experiment name (see ``repro list``).
    seed:
        Base seed threaded into every cell; ``None`` uses the
        experiment's registered default (so results match the legacy
        ``run_*`` entry point byte for byte).
    jobs:
        Worker processes.  ``1`` runs in-process (no pool is loaded).
    cache:
        ``None`` disables memoization; ``True`` uses the default cache
        dir; a path or :class:`CellCache` selects one explicitly.
    overrides:
        Experiment-specific grid overrides (scales, subsets) merged into
        every cell's params by the enumerator.  Overridden cells hash
        differently, so they never alias full-scale cached cells.  A key
        outside the experiment's ``tunables`` raises ``ValueError``.
    force:
        Skip cache reads (still writes fresh results back).
    tracer:
        An optional :class:`repro.obs.Tracer`; the sweep emits
        ``sweep.start`` / ``sweep.cell.done`` / ``sweep.done`` instants
        with wall-clock timings in the event fields.
    progress:
        Optional callback ``progress(event, **info)`` mirroring the trace
        events for CLI display.
    check:
        Arm live differential oracles around every *executed* cell (a
        checked run is byte-identical or raises).  Cache hits skip
        execution and therefore skip the check; pass ``cache=False`` to
        check the full grid.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    spec = _registry.get(experiment)
    spec.check_overrides(overrides or {})
    resolved_seed = spec.default_seed if seed is None else seed
    cells = tuple(spec.cells(resolved_seed, dict(overrides or {})))
    store = _resolve_cache(cache)
    code = code_fingerprint() if store is not None else ""

    def emit(name: str, **fields: Any) -> None:
        if tracer is not None:
            tracer.instant(name, cat="sweep", **fields)
        if progress is not None:
            progress(name, **fields)

    start = time.perf_counter()
    emit("sweep.start", experiment=experiment, seed=resolved_seed,
         cells=len(cells), jobs=jobs)

    docs: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    seconds: List[float] = [0.0] * len(cells)
    keys: List[Optional[str]] = [None] * len(cells)
    pending: List[int] = []
    for index, cell in enumerate(cells):
        if store is not None:
            keys[index] = store.key_for(cell, code)
            if not force:
                doc = store.get(keys[index])
                if doc is not None:
                    docs[index] = normalize_doc(doc)
                    emit("sweep.cell.done", key=cell.key, cached=True,
                         seconds=0.0)
                    continue
        pending.append(index)

    def finish(slot: int, result: Tuple[str, Dict[str, Any], float]
               ) -> None:
        index = pending[slot]
        _key, docs[index], seconds[index] = result
        if store is not None:
            store.put(keys[index], cells[index], docs[index])
        emit("sweep.cell.done", key=cells[index].key, cached=False,
             seconds=round(seconds[index], 6))

    fan_out(_execute_cell,
            [(experiment, cells[index].key, dict(cells[index].params),
              cells[index].seed, check) for index in pending],
            jobs, on_done=finish)

    # Merge strictly in enumeration order: worker completion order (and
    # which cells were memoized) must never reach the merged document.
    merged = spec.merge(cells, docs)  # type: ignore[arg-type]
    wall = time.perf_counter() - start
    emit("sweep.done", experiment=experiment, cells=len(cells),
         executed=len(pending), seconds=round(wall, 6))
    executed = set(pending)
    runs = tuple(
        CellRun(cell=cell, doc=docs[index],  # type: ignore[arg-type]
                cached=index not in executed, seconds=seconds[index])
        for index, cell in enumerate(cells))
    return SweepResult(
        experiment=experiment, seed=resolved_seed, jobs=jobs, runs=runs,
        merged=normalize_doc(merged), wall_seconds=wall,
        cache_stats=store.stats if store is not None else {})
