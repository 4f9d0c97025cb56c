"""Golden-hash fingerprints: proof the fast path changed nothing.

Every optimisation in the simulation core carries one non-negotiable
constraint: bit-identical behaviour.  Event ordering (time, priority,
insertion order) and RNG draws must be exactly what they were before the
fast path landed.  These helpers canonicalise the full metrics output of a
seeded experiment into JSON and hash it; the golden tests in
``tests/test_determinism_golden.py`` check them against the hashes the
*unoptimised* engine produced (``tests/pins.json``), so any behavioural
drift — a reordered wakeup, a stolen RNG draw, a float computed in a
different order — flips the digest.

The fingerprints deliberately cover the whole stack, not just the engine:

- :func:`cell_fingerprint` — one end-to-end :class:`~repro.lb.server.LBServer`
  run (engine, epoll, wait queues, scheduler, WST, workers, metrics).
- :func:`sec7_fingerprint` — the §7 crash-blast scenario in both exclusive
  and Hermes modes (fault injection, restart paths, per-worker teardown).
- :func:`fig13_fingerprint` — the Fig. 13 load-balance sweep (periodic
  samplers, per-worker CPU accounting, three notification modes).
- :func:`fleet_fingerprint` — one ``fleet_scale`` cell (ingress hashing,
  per-instance hash-seed derivation, backend-map versioning, failover
  migration, PCC monitoring).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = [
    "canonical_json",
    "fingerprint",
    "cell_fingerprint",
    "sec7_fingerprint",
    "fig13_fingerprint",
    "fleet_fingerprint",
]


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` to a canonical JSON string.

    Sorted keys, no whitespace variance, ``repr``-faithful floats (Python's
    float → JSON round-trip is shortest-repr, which is deterministic for
    identical bit patterns).  Tuples collapse to lists.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def cell_fingerprint(mode: str = "hermes", case: str = "case2",
                     load: str = "light", n_workers: int = 8,
                     duration: float = 2.0, seed: int = 7) -> str:
    """Hash one end-to-end (mode, case, load) cell's metrics output."""
    from ..experiments.common import run_case_cell
    from ..lb.server import NotificationMode

    return fingerprint(run_case_cell(
        NotificationMode(mode), case, load, n_workers=n_workers,
        duration=duration, seed=seed).to_doc())


def sec7_fingerprint(seed: int = 79) -> str:
    """Hash the §7 experience suite (crash blast in both modes + RR/reuse).

    Routed through the registry.  ``seed`` anchors the crash-blast cells exactly as before; the registry
    derives the RR/reuse cell seeds as ``seed - 8`` / ``seed - 6``, which
    for the default reproduces the historical 71/73/79 assignment — and
    the pinned golden hash — byte for byte.
    """
    from ..experiments.registry import get

    merged = get("sec7").run(seed=seed - 8)
    cells = merged["cells"]
    rr = cells["backend_rr"]
    reuse = cells["connection_reuse"]
    blasts = {
        mode: {
            "total_connections": cells[f"crash_blast/{mode}"]
            ["total_connections"],
            "connections_killed": cells[f"crash_blast/{mode}"]
            ["connections_killed"],
            "blast_fraction": cells[f"crash_blast/{mode}"]["blast_fraction"],
        }
        for mode in ("exclusive", "hermes")
    }
    return fingerprint({
        "backend_rr": {
            "imbalance_synchronized": rr["imbalance_synchronized"],
            "imbalance_randomized": rr["imbalance_randomized"],
        },
        "connection_reuse": {
            "handshakes_per_worker_pools":
                reuse["handshakes_per_worker_pools"],
            "handshakes_shared_pool": reuse["handshakes_shared_pool"],
            "added_latency_per_worker": reuse["added_latency_per_worker"],
            "added_latency_shared": reuse["added_latency_shared"],
        },
        "crash_blast": blasts,
    })


def fig13_fingerprint(n_workers: int = 4, duration: float = 2.0,
                      seed: int = 47) -> str:
    """Hash the Fig. 13 load-balance sweep (all three modes, full series).

    Routed through the registry: the fig13 cells run the identical
    ``_run_mode`` underneath with the identical per-mode seed, and the
    canonical-JSON normalization the registry applies is exactly what
    :func:`fingerprint` does anyway, so the pinned hash is unchanged.
    """
    from ..experiments.registry import get

    merged = get("fig13").run(
        seed=seed, overrides={"n_workers": n_workers, "duration": duration})
    series = merged["cells"]
    return fingerprint({
        "cpu_sd": merged["cpu_sd"],
        "conn_sd": merged["conn_sd"],
        "cpu_sd_series": {m: [list(p) for p in doc["cpu_series"]]
                          for m, doc in series.items()},
        "conn_sd_series": {m: [list(p) for p in doc["conn_series"]]
                           for m, doc in series.items()},
    })


def fleet_fingerprint(n_instances: int = 4, policy: str = "stateless",
                      seed: int = 31) -> str:
    """Hash one ``fleet_scale`` cell end to end (churn + instance crash).

    Covers everything cluster-of-clusters adds on top of a single device:
    the ECMP ingress spray, per-instance hash-seed derivation, version-
    stamped backend-map churn, stateless failover migration, and the PCC/
    invariant monitors (which must read without perturbing the run).
    """
    from ..experiments.fleet_scale import run_fleet_cell

    doc = run_fleet_cell(seed, {"n_instances": n_instances,
                                "policy": policy})
    return fingerprint({
        "instances": doc["instances"],
        "policy": doc["policy"],
        "p99_ms": doc["p99_ms"],
        "avg_ms": doc["avg_ms"],
        "completed": doc["completed"],
        "failed": doc["failed"],
        "broken_instance": doc["broken_instance"],
        "broken_backend": doc["broken_backend"],
        "migrated": doc["migrated"],
        "pcc_violations": doc["pcc_violations"],
    })
