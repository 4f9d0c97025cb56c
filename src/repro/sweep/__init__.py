"""repro.sweep — parallel, cached experiment orchestration.

Decomposes any registered experiment into independent seeded cells,
fans them out across processes (``--jobs N``), memoizes completed cells
in a content-addressed on-disk cache, and merges results in enumeration
order so parallel output is byte-identical to serial.

Entry points:

- :func:`run_sweep` — orchestrate one experiment.
- :func:`run_cells` — the cache-then-fan-out loop under it (and under
  ``run_fuzz``).
- :class:`CellCache` — the on-disk memoizer.
- :func:`code_fingerprint` — the source-tree digest in every cache key.
"""

from .._lazy import lazy_exports

__all__ = [
    "CACHE_SCHEMA",
    "CellCache",
    "cell_cache_key",
    "code_fingerprint",
    "reset_fingerprint_cache",
    "SWEEP_SCHEMA",
    "CellRun",
    "SweepResult",
    "run_cells",
    "run_sweep",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("CACHE_SCHEMA", "CellCache", "cell_cache_key"),
    ".fingerprint": ("code_fingerprint", "reset_fingerprint_cache"),
    ".orchestrator": ("SWEEP_SCHEMA", "CellRun", "SweepResult", "run_cells",
                      "run_sweep"),
})
