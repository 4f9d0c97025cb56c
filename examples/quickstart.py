#!/usr/bin/env python3
"""Quickstart: run one Hermes-enabled L7 LB device under load.

Builds an 8-worker LB device in Hermes mode, drives two simulated seconds
of Case-1 traffic (high CPS, small requests) at it, and prints the device
summary plus per-worker distribution — the 30-second tour of the API.

Run:  python examples/quickstart.py
"""

from repro import NotificationMode, build_cell
from repro.workloads import build_case_workload

N_WORKERS = 8


def main() -> None:
    # Case 1 of the paper: high connections-per-second, low processing
    # time, one request per connection.
    spec = build_case_workload("case1", "medium", n_workers=N_WORKERS,
                               duration=2.0)

    # An LB device: one VM, one worker process pinned per core, Hermes
    # closed-loop dispatch (WST + cascading scheduler + eBPF program),
    # plus the traffic generator; every RNG stream derives from seed 7.
    cell = build_cell(spec, NotificationMode.HERMES, seed=7,
                      n_workers=N_WORKERS)

    # Run the simulation (plus settle time for in-flight requests).
    lb = cell.run(until=2.5).server

    summary = lb.metrics.summary()
    print("== device summary ==")
    print(f"requests completed : {summary['completed']}")
    print(f"throughput         : {summary['throughput_rps'] / 1e3:.1f} kRPS")
    print(f"avg latency        : {summary['avg_ms']:.3f} ms")
    print(f"P99 latency        : {summary['p99_ms']:.3f} ms")
    print(f"CPU SD across cores: {summary['cpu_sd'] * 100:.2f}%")

    print("\n== per-worker distribution ==")
    for worker_id, metrics in lb.metrics.workers.items():
        bar = "#" * int(metrics.cpu_utilization * 40)
        print(f"worker {worker_id}: accepted {metrics.accepted:5d}  "
              f"cpu {metrics.cpu_utilization * 100:5.1f}% {bar}")

    group = lb.groups[0]
    print("\n== Hermes internals ==")
    print(f"scheduler runs      : {group.scheduler.calls}")
    print(f"mean coarse pass    : "
          f"{group.scheduler.pass_ratios.mean * 100:.1f}% of workers")
    print(f"kernel dispatches   : {group.program.dispatched}")
    print(f"hash fallbacks      : {group.program.fallbacks}")


if __name__ == "__main__":
    main()
