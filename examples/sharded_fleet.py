#!/usr/bin/env python3
"""Process-sharded fleet: N instances, one OS process each, merged
deterministically.

One event loop tops out around a few million events/sec — fine for 8 LB
instances, hopeless for 64+.  But the fleet's instances share no state:
the ingress tier steers each flow with a pure function of its 4-tuple,
and backend churn is a deterministic global rule.  So instance *i*'s
whole simulation is reproducible from the seed alone, and the fleet can
run as N independent shards (``repro.fleet.sharded``):

1. The seeded arrival stream is drawn once — gap, port, 4-tuple, and a
   per-connection seed for every fleet-wide arrival — and split by the
   global ingress pick.  Each shard schedules only its own slice, at the
   exact times the stream produced.
2. Shard results land in a slot indexed by shard id and merge in that
   fixed order: pooled latency percentiles, summed counters, summed
   PCC verdicts — the same pattern ``repro.sweep`` proved
   byte-identical.

The payoff this example demonstrates: ``jobs=4`` and ``jobs=1`` produce
the **byte-identical** merged document, so parallelism is free of
determinism risk — and a 16-instance fleet costs one instance's
wall-clock per core instead of 16 instances' on one core.

Run:  python examples/sharded_fleet.py
"""

import json
import time

from repro.fleet.sharded import run_sharded_fleet

N_INSTANCES = 16
DURATION = 0.9


def main():
    print(f"sharded fleet: {N_INSTANCES} instances, churn at 0.5s, "
          f"PCC-monitored\n")

    t0 = time.perf_counter()
    serial = run_sharded_fleet(n_instances=N_INSTANCES, duration=DURATION,
                               churn_at=0.5, jobs=1, check=True)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fanned = run_sharded_fleet(n_instances=N_INSTANCES, duration=DURATION,
                               churn_at=0.5, jobs=4, check=True)
    fanned_s = time.perf_counter() - t0

    identical = (json.dumps(serial, sort_keys=True)
                 == json.dumps(fanned, sort_keys=True))
    print(f"jobs=1: {serial_s:6.2f}s   jobs=4: {fanned_s:6.2f}s   "
          f"byte-identical: {identical}")
    assert identical, "sharding determinism contract violated"

    print(f"\ncompleted:        {serial['completed']}")
    print(f"p99 latency:      {serial['p99_ms']:.3f} ms")
    print(f"throughput:       {serial['throughput_rps'] / 1e3:.2f} kRPS")
    print(f"foreign:          {serial['foreign']} "
          f"(arrival slots owned by another shard, summed over shards)")
    print(f"backend churn:    version {serial['backend_version']}, "
          f"{serial['broken_backend']} connections legitimately broken")
    print(f"PCC violations:   {serial['pcc_violations']}")
    print(f"invariant checks: {sum(serial['passes'].values())} passed")


if __name__ == "__main__":
    main()
