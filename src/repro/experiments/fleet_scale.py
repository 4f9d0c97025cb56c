"""Fleet scale-out: stateful vs stateless connection lookup under churn.

The grid runs a ``repro.fleet`` fleet at several sizes (instances ×
policy), each cell driving steady traffic through the ECMP ingress tier
while the fault plan rolls the backend set (``backend_churn``) and then
kills the busiest LB instance (``instance_crash``).  Every cell is a
checked fleet run (:class:`~repro.check.PccMonitor`, per-instance
invariant monitors and live oracles), so a per-connection-consistency
violation fails the cell loudly instead of skewing its numbers.

The qualitative result the experiment reproduces (Concury / the
cluster-of-clusters scaling argument): with the **stateless** lookup,
connections owned by a crashed instance fail over to survivors and keep
their backend — broken connections stay bounded by the backend churn
alone — while the **stateful** per-instance table dies with its
instance, so every connection it owned breaks.  One claim per fleet
size checks that contrast on broken-connection counts.

Cells are independent and fully determined by ``(key, params, seed)``,
so the grid sweeps and memoizes like every other experiment.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .registry import CellSpec, check_claims, lined_experiment

__all__ = ["run_fleet_cell", "BASE_WORKLOAD", "FLEET_SIZES", "POLICIES",
           "SHARDED_SIZES"]

#: Workload + fault schedule shared by every cell.  The crash lands after
#: the churn so the stateless policy has to survive both: re-resolve
#: version-stamped flows *and* migrate the dead instance's connections.
BASE_WORKLOAD: Dict[str, Any] = {
    "n_workers": 2,
    "conn_rate": 150.0,
    "duration": 1.5,
    "churn_at": 0.6,
    "churn_k": 2,
    "crash_at": 0.9,
    "detect_delay": 0.005,
}

#: Fleet sizes the grid scales across (the acceptance bar is >= 3).
FLEET_SIZES: Tuple[int, ...] = (2, 4, 8)

#: Lookup policies head-to-head at every size.
POLICIES: Tuple[str, ...] = ("stateful", "stateless")

#: Opt-in process-sharded sizes (``sharded_sizes`` tunable).  Off by
#: default so the default grid — and GOLDEN_FLEET — is untouched; the
#: sharded tier exists to scale past what one event loop can hold.
SHARDED_SIZES: Tuple[int, ...] = (16, 32, 64)


def run_fleet_cell(seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
    """One cell: a fresh fleet under churn + crash, PCC-monitored."""
    from ..fleet import run_fleet

    workload = dict(BASE_WORKLOAD)
    workload.update({k: params[k] for k in BASE_WORKLOAD if k in params})
    n_instances = params["n_instances"]
    policy = params["policy"]

    if params.get("sharded"):
        return _run_sharded_cell(seed, n_instances, policy, workload,
                                 int(params.get("jobs", 1)))

    run = run_fleet(policy=policy, n_instances=n_instances, seed=seed,
                    check=True, **workload)
    summary = run.doc

    rendered = (
        f"{n_instances}x {policy:<9s} | p99={summary['p99_ms']:7.2f}ms "
        f"avg={summary['avg_ms']:6.2f}ms done={summary['completed']:5d} "
        f"failed={summary['failed']:3d} broken={summary['broken']:3d} "
        f"(inst={summary['broken_instance']} "
        f"backend={summary['broken_backend']}) "
        f"migrated={summary['migrated']:3d} "
        f"pcc={'OK' if not summary['pcc_violations'] else 'VIOLATED'}")
    return {
        "instances": n_instances,
        "policy": policy,
        "p99_ms": round(summary["p99_ms"], 6),
        "avg_ms": round(summary["avg_ms"], 6),
        "completed": summary["completed"],
        "failed": summary["failed"],
        "broken": summary["broken"],
        "broken_instance": summary["broken_instance"],
        "broken_backend": summary["broken_backend"],
        "migrated": summary["migrated"],
        "pcc_violations": summary["pcc_violations"],
        "checks_passed": run.passes,
        "rendered": rendered,
    }


def _run_sharded_cell(seed: int, n_instances: int, policy: str,
                      workload: Dict[str, Any], jobs: int) -> Dict[str, Any]:
    """A process-sharded cell: churn only (instance crash cannot shard)."""
    from ..fleet.sharded import run_sharded_fleet

    doc = run_sharded_fleet(
        policy=policy, n_instances=n_instances,
        n_workers=workload["n_workers"], seed=seed,
        duration=workload["duration"], conn_rate=workload["conn_rate"],
        churn_at=workload["churn_at"], churn_k=workload["churn_k"],
        jobs=jobs, check=True)
    rendered = (
        f"{n_instances}x {policy:<9s} | p99={doc['p99_ms']:7.2f}ms "
        f"avg={doc['avg_ms']:6.2f}ms done={doc['completed']:5d} "
        f"failed={doc['failed']:3d} broken={doc['broken']:3d} "
        f"(backend={doc['broken_backend']}) sharded "
        f"pcc={'OK' if not doc['pcc_violations'] else 'VIOLATED'}")
    # Note: ``jobs`` must not leak into the result doc — the cell output
    # is byte-identical for any worker count, and the memo cache must
    # agree.
    return {
        "instances": n_instances,
        "policy": policy,
        "sharded": True,
        "p99_ms": round(doc["p99_ms"], 6),
        "avg_ms": round(doc["avg_ms"], 6),
        "completed": doc["completed"],
        "failed": doc["failed"],
        "broken": doc["broken"],
        "broken_instance": 0,
        "broken_backend": doc["broken_backend"],
        "migrated": 0,
        "pcc_violations": doc["pcc_violations"],
        "checks_passed": doc["passes"],
        "rendered": rendered,
    }


def _cells(seed: int, overrides: Dict[str, Any]) -> Tuple[CellSpec, ...]:
    wanted = overrides.get("cells")
    sizes = tuple(overrides.get("instances", FLEET_SIZES))
    policies = tuple(overrides.get("policies", POLICIES))
    workload_overrides = {k: overrides[k] for k in BASE_WORKLOAD
                          if k in overrides}
    cells = []
    for n_instances in sizes:
        for policy in policies:
            key = f"{n_instances}x/{policy}"
            if wanted is not None and key not in wanted:
                continue
            params = dict(workload_overrides)
            params["n_instances"] = n_instances
            params["policy"] = policy
            cells.append(CellSpec("fleet_scale", key, params, seed))
    for n_instances in tuple(overrides.get("sharded_sizes", ())):
        key = f"{n_instances}x/sharded"
        if wanted is not None and key not in wanted:
            continue
        params = dict(workload_overrides)
        params["n_instances"] = int(n_instances)
        params["policy"] = "stateless"
        params["sharded"] = True
        params["jobs"] = int(overrides.get("jobs", 1))
        cells.append(CellSpec("fleet_scale", key, params, seed))
    return tuple(cells)


def _survives(n_instances: int):
    """Rule: at ``n_instances`` the stateless lookup breaks fewer
    connections than the stateful one, and none through the crash."""
    def check(stateful, stateless):
        return (stateless["broken"] < stateful["broken"]
                and stateless["broken_instance"] == 0,
                f"broken stateless {stateless['broken']} (instance "
                f"{stateless['broken_instance']}) vs stateful "
                f"{stateful['broken']}")
    return (f"{n_instances}x_stateless_survives_the_crash",
            [f"{n_instances}x/stateful", f"{n_instances}x/stateless"], check)


def _claims(merged: Dict[str, Any]):
    sizes = sorted({doc["instances"] for doc in merged["cells"].values()})
    return check_claims(merged["cells"], [_survives(n) for n in sizes])


lined_experiment(
    "fleet_scale",
    "Fleet scale-out: stateful vs stateless lookup under churn+crash",
    _cells, lambda cell: run_fleet_cell(cell.seed, dict(cell.params)),
    default_seed=31, claims=_claims,
    tunables={
        "cells": "subset of cell keys to run (default: all sizes×policies)",
        "instances": "fleet sizes to sweep (default: 2, 4, 8)",
        "policies": "lookup policies (default: stateful, stateless)",
        "n_workers": "workers per LB instance",
        "conn_rate": "steady connection rate (cps)",
        "duration": "cell duration (s)",
        "churn_at": "backend churn time (s)",
        "churn_k": "backends replaced by the churn",
        "crash_at": "instance crash time (s)",
        "detect_delay": "instance failure-detection window (s)",
        "sharded_sizes": "extra process-sharded stateless sizes "
                         "(e.g. 16,32,64; churn only, no crash)",
        "jobs": "worker processes for sharded cells (output is "
                "byte-identical for any value)",
    })
