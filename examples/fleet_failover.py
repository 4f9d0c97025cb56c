#!/usr/bin/env python3
"""Fleet failover: stateful vs Concury-stateless connection lookup.

Three acts on a 4-instance fleet behind the ECMP ingress tier:

1. Backend churn under the stateless lookup — mid-run, two backends
   retire and two join, publishing a new version-stamped backend map.
   Established connections keep resolving under their *birth* version
   (per-connection consistency); only flows pinned to a retired backend
   break, and they break with a recorded reason.
2. The instance-crash head-to-head — the same crash at the same seed,
   once per policy.  The stateful per-instance table dies with its
   instance and every connection it owned breaks; the stateless lookup
   lets the survivors adopt those connections and recompute the *same*
   backend from (flow hash, version stamp) — zero instance-broken.
3. The PCC corruption drill — a wrapped backend-map update tampers with
   the version-0 table, so live connections silently re-resolve to a
   different backend.  The PccMonitor catches it on its next tick and
   raises with the flight recorder's last events attached.

Run:  python examples/fleet_failover.py
"""

from repro.check import InvariantViolation
from repro.fleet import run_fleet


def act1_churn_is_survivable() -> None:
    print("=== Act 1: backend churn, stateless lookup " + "=" * 22)
    run = run_fleet(policy="stateless", n_instances=4, churn_at=0.6,
                    churn_k=2, check=True)
    summary = run.doc
    print(f"completed {summary['completed']} requests across "
          f"{summary['instances']} instances "
          f"(backend map now at version {summary['backend_version']})")
    print(f"  broken by the churn: {summary['broken_backend']} "
          f"(pinned to a retired backend — the legal PCC exception)")
    print(f"  broken by anything else: {summary['broken_instance']}")
    print(f"  PCC checks passed: {run.passes['pcc']}, violations: "
          f"{summary['pcc_violations']}")
    print()


def act2_crash_head_to_head() -> None:
    print("=== Act 2: instance crash, stateful vs stateless " + "=" * 16)
    results = {}
    for policy in ("stateful", "stateless"):
        summary = run_fleet(policy=policy, n_instances=4, crash_at=0.9,
                            check=True).doc
        results[policy] = summary
        print(f"{policy:>9}: completed={summary['completed']} "
              f"failed={summary['failed']} "
              f"broken_instance={summary['broken_instance']} "
              f"migrated={summary['migrated']}")
    stateful, stateless = results["stateful"], results["stateless"]
    print(f"the crash broke {stateful['broken_instance']} connections "
          f"under the stateful table;")
    print(f"the stateless lookup migrated {stateless['migrated']} of them "
          f"to survivors with their backends intact "
          f"({stateless['broken_instance']} broken).")
    print()


def act3_pcc_corruption_drill() -> None:
    print("=== Act 3: a planted lookup corruption is caught " + "=" * 16)
    try:
        run_fleet(policy="stateless", check=True, corrupt_lookup=True)
    except InvariantViolation as violation:
        print(f"caught [{violation.name}]: {violation}")
        print(f"flight recorder attached {len(violation.flight_events)} "
              "events; the last three:")
        for event in violation.flight_events[-3:]:
            print(f"  t={event['ts']:.6f} {event['name']}")
    else:
        raise SystemExit("the corruption drill should have raised!")
    print()


def main() -> None:
    act1_churn_is_survivable()
    act2_crash_head_to_head()
    act3_pcc_corruption_drill()
    print("done — the swept version is "
          "`python -m repro experiment fleet_scale`, "
          "the CLI version `python -m repro fleet --check`.")


if __name__ == "__main__":
    main()
