#!/usr/bin/env python3
"""Group-based scheduling: trading load balance for cache locality.

Appendix C / Fig. A6: Hermes can partition workers into groups, pick the
group by hash(DIP & Dport) — connections to the same destination service
stay together (locality) — and balance within the group using the usual
bitmap.  Group size 1 degenerates to plain reuseport; a single group is
standard Hermes.

This example sweeps the group size on a fixed workload and prints the
locality/balance frontier, plus the >64-worker two-level configuration.

Run:  python examples/cache_locality_groups.py
"""

from repro.analysis import render_table
from repro.experiments.registry import get


def main() -> None:
    # The registered App. C grid: group sizes 1, 2, 4, 8 on an 8-worker,
    # 16-port device, plus a 128-worker device
    # (`python -m repro experiment appc` prints the same cells).
    cells = get("appc").run()["cells"]
    rows = []
    for group_size in (1, 2, 4, 8):
        point = cells[f"group{group_size}"]
        rows.append([
            group_size,
            point["n_groups"],
            f"{point['locality_score']:.2f}",
            f"{point['balance_score']:.3f}",
            f"{point['avg_ms']:.2f}",
        ])
    print(render_table(
        ["group size", "#groups", "locality", "balance (Jain)", "avg ms"],
        rows,
        title="Locality vs balance as the grouping granularity varies"))
    print("\ngroup size 1 == reuseport-per-destination (max locality, "
          "worst balance); one big group == standard Hermes.")

    wide = cells["wide"]
    print(f"\n128-worker device: {wide['n_groups']} groups of 64 "
          f"(one atomic 64-bit word each), both dispatching: "
          f"{wide['all_groups_used']}; connection fairness "
          f"{wide['conn_fairness']:.3f}; {wide['completed']} requests "
          f"completed.")


if __name__ == "__main__":
    main()
