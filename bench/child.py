"""One pass of one workload, run in a fresh interpreter by ``run.py``.

    python bench/child.py WORKLOAD SEED KIND SPAWNED_AT

``KIND`` is ``checked`` (monitors armed), ``timed`` (nothing installed) or
``traced`` (span wrappers and the profiler installed).  ``SPAWNED_AT`` is
the parent's ``time.monotonic()`` just before it started this process, so
set-up time covers interpreter start and imports.  The last line of
standard output is the pass's JSON document.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from typing import Any, Dict

import workloads

KINDS = ("checked", "timed", "traced")


def run_pass(name: str, seed: int, kind: str,
             spawned_at: float) -> Dict[str, Any]:
    if kind not in KINDS:
        raise ValueError(f"pass kind must be one of {KINDS}, got {kind!r}")
    tracer = None
    if kind == "traced":
        import layers

        tracer = layers.Tracer()
        tracer.install()
    marks: Dict[str, float] = {}

    def on_start() -> None:
        marks["start"] = time.monotonic()
        if tracer is not None:
            tracer.start()

    def on_stop() -> None:
        if tracer is not None:
            tracer.stop()
        marks["stop"] = time.monotonic()

    outcome = workloads.simulate(name, seed, check=kind == "checked",
                                 on_start=on_start, on_stop=on_stop)
    run_s = marks["stop"] - marks["start"]
    doc: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "kind": kind,
        "digest": workloads.digest(outcome.doc),
        "setup_s": marks["start"] - spawned_at,
        "run_s": run_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "steps": outcome.steps,
        "sim": outcome.sim,
    }
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracer.metrics(outcome.steps, outcome.doc)
        doc["profile"] = tracer.self_time_by_package()
        doc["spans"] = tracer.spans
        doc["missing_probes"] = tracer.missing
    return doc


def main(argv) -> int:
    name, seed, kind, spawned_at = argv
    doc = run_pass(name, int(seed), kind, float(spawned_at))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
