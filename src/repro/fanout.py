"""One fan-out for independent seeded runs (fleet shards, sweep cells,
fuzz scenarios): serially in this process, or across a process pool.

The pool module, and with it ``multiprocessing``, is imported only when a
pool is built.  A serial run collects each finished run's reference-cyclic
simulated world before the next run starts; freezing what was alive
before the loop keeps each collection to the objects the loop created.
"""

from __future__ import annotations

import gc
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["fan_out"]


def fan_out(fn: Callable[[Any], Any], payloads: Sequence[Any], jobs: int = 1,
            on_done: Optional[Callable[[int, Any], None]] = None
            ) -> List[Any]:
    """Return ``[fn(p) for p in payloads]``, in enumeration order.

    ``jobs > 1`` with two or more payloads uses a pool of
    ``min(jobs, len(payloads))`` workers, so ``fn`` must be top-level and
    the payloads picklable.  ``on_done(index, result)`` fires once per
    payload as its result arrives.  A caller that has already frozen
    objects gets plain collections, so its frozen set is never thawed.
    """
    results: List[Any] = [None] * len(payloads)
    if jobs > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(
                max_workers=min(jobs, len(payloads))) as pool:
            futures = {pool.submit(fn, payload): index
                       for index, payload in enumerate(payloads)}
            for future in as_completed(futures):
                index = futures[future]
                results[index] = future.result()
                if on_done is not None:
                    on_done(index, results[index])
        return results
    scoped = gc.get_freeze_count() == 0
    if scoped:
        gc.freeze()
    try:
        for index, payload in enumerate(payloads):
            results[index] = fn(payload)
            if on_done is not None:
                on_done(index, results[index])
            gc.collect()
    finally:
        if scoped:
            gc.unfreeze()
    return results
