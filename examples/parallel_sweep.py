#!/usr/bin/env python3
"""A parallel, cached θ-ratio sweep through the unified Scenario API.

Fig. 15 asks: how aggressively should Hermes's cascading filter mark
workers busy (the θ time ratio) before performance suffers?  Answering it
takes 18 independent simulations (6 ratios × 3 seeds) — exactly the shape
``repro.sweep`` exists for:

1. The registry decomposes the experiment into independent seeded cells.
2. ``run_sweep(..., jobs=N)`` fans the cells across worker processes and
   merges the documents in enumeration order, so the result is
   **byte-identical** to a serial run.
3. Every finished cell lands in a content-addressed on-disk cache keyed
   by (cell spec, seed, code fingerprint); the second run below executes
   nothing and still reproduces the same bytes.

Run:  python examples/parallel_sweep.py
"""

import os
import tempfile
import time

from repro.sweep import run_sweep

#: Scaled down from the paper grid so the example finishes in seconds.
#: Drop the overrides (and raise jobs) to run Fig. 15 at full scale.
GRID = {
    "theta_ratios": [1.0, 2.0, 4.0],
    "n_seeds": 2,
    "n_workers": 4,
    "duration": 1.5,
}


def main() -> None:
    jobs = max(os.cpu_count() or 1, 1)
    with tempfile.TemporaryDirectory(prefix="sweep-cache-") as cache_dir:
        print(f"cold sweep: fig15 ({jobs} jobs, empty cache)")
        start = time.perf_counter()
        cold = run_sweep("fig15", seed=61, jobs=jobs, cache=cache_dir,
                         overrides=GRID)
        print(cold.render())
        print(f"  {len(cold.runs)} cells: {cold.executed} executed, "
              f"{cold.cached} cached, {time.perf_counter() - start:.1f}s")

        print(f"\nwarm sweep: same grid, same seed, same code")
        start = time.perf_counter()
        warm = run_sweep("fig15", seed=61, jobs=jobs, cache=cache_dir,
                         overrides=GRID)
        print(f"  {len(warm.runs)} cells: {warm.executed} executed, "
              f"{warm.cached} cached, {time.perf_counter() - start:.2f}s")

        identical = warm.to_json() == cold.to_json()
        print(f"  byte-identical to the cold run: {identical}")
        assert identical, "cached sweep diverged from the executed one"

    # Changing any leg of a cell's identity (seed, params, code) misses
    # the cache; the cells re-run rather than alias stale results.
    print("\nsame grid at a different seed (fresh cache keys):")
    shifted = run_sweep("fig15", seed=62, jobs=jobs, overrides=GRID)
    print(f"  {shifted.executed} executed (no aliasing across seeds)")


if __name__ == "__main__":
    main()
