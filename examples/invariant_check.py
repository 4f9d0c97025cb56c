#!/usr/bin/env python3
"""Runtime invariant monitors: arming, corruption drills, post-mortems.

Three acts on the §7 crash scenario:

1. A monitored run — connection conservation, bitmap↔WST↔sockarray
   consistency, no-lost-wakeup, and clock monotonicity are checked every
   epoll-timeout tick while live differential oracles shadow every
   bitmap/hash/cascade fast path.  Everything stays green and the
   results are byte-identical to an unmonitored run.
2. A corruption drill — a wrapped selection-map write keeps re-planting
   a set bit beyond the group width (a persistent memory-corruption
   bug).  The bitmap↔WST monitor catches it on its next tick and raises
   with the flight recorder's last events attached for the post-mortem.
3. The nondeterminism linter over ``src/`` with the reviewed allowlist.

Run:  python examples/invariant_check.py
"""

from repro import Environment, LBServer, NotificationMode, RngRegistry
from repro.check import InvariantViolation, run_checked, watch
from repro.check.lint import default_allowlist_path, lint_paths
from repro.check.runner import run_monitored_crash
from repro.workloads import FixedFactory, TrafficGenerator, WorkloadSpec


def act1_clean_monitored_run() -> None:
    print("=== Act 1: monitored run, everything green " + "=" * 22)
    env = Environment()
    registry = RngRegistry(7)
    server = LBServer(env, n_workers=8, ports=[443],
                      mode=NotificationMode.HERMES)
    server.start()
    monitor = watch(server)  # attaches + starts ticking

    spec = WorkloadSpec(name="steady", conn_rate=200.0, duration=2.0,
                        factory=FixedFactory((200e-6,)), ports=(443,),
                        requests_per_conn=10, request_gap_mean=0.1)
    generator = TrafficGenerator(env, server, registry.stream("traffic"),
                                 spec)
    generator.start()

    # Every fast path shadow-checked, then the monitor finalized.
    passes = {}
    stats = run_checked(env, monitor, until=2.5, passes=passes)

    print(f"accepted {server.metrics.connections_accepted} connections")
    for name, count in sorted(passes.items()):
        print(f"  invariant {name:<16} passed {count:>5} evaluations")
    print(f"  live oracles agreed on {stats.total} comparisons")
    print()


def act2_corruption_drill() -> None:
    print("=== Act 2: a planted bitmap corruption is caught " + "=" * 16)
    try:
        run_monitored_crash(mode="hermes", corrupt_bitmap=True)
    except InvariantViolation as violation:
        print(f"caught [{violation.name}]: {violation}")
        print(f"flight recorder attached {len(violation.flight_events)} "
              "events; the last three:")
        for event in violation.flight_events[-3:]:
            print(f"  t={event['ts']:.6f} {event['name']}")
    else:
        raise SystemExit("the corruption drill should have raised!")
    print()


def act3_lint() -> None:
    print("=== Act 3: nondeterminism lint over src/ " + "=" * 24)
    findings, suppressed = lint_paths(
        ["src"], allowlist=default_allowlist_path())
    for finding in findings:
        print(f"  {finding}")
    print(f"  {len(findings)} finding(s), {suppressed} allowlisted")
    print()


def main() -> None:
    act1_clean_monitored_run()
    act2_corruption_drill()
    act3_lint()
    print("done — the same gate runs as `python -m repro check`.")


if __name__ == "__main__":
    main()
