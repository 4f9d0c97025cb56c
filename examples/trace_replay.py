#!/usr/bin/env python3
"""Trace replay at 1x / 2x / 3x — the paper's evaluation methodology.

§6.2: "we collected and replayed traffic ... Additionally, we replayed
traffic at 2 to 3 times the original rate to emulate medium and heavy
workloads."  This example materializes a Case-4 workload's arrivals once
(fixed times, 4-tuples and per-connection seeds, so fixed request
shapes), then replays the *same* arrivals against fresh devices at
increasing rates under each notification mode.

Run:  python examples/trace_replay.py
"""

from repro import NotificationMode
from repro.analysis import render_table
from repro.cell import build_cell
from repro.workloads import arrivals, build_case_workload

N_WORKERS = 8
SEED = 31


def replay(spec, spine, mode, rate):
    cell = build_cell(spec, mode, SEED, n_workers=N_WORKERS)
    cell.gen.replay((time / rate, four_tuple, conn_seed)
                    for time, four_tuple, conn_seed in spine)
    cell.env.run(until=spec.duration / rate + 1.5)
    return cell.server.metrics.summary(), cell.gen.stats


def main() -> None:
    spec = build_case_workload("case4", "light", n_workers=N_WORKERS,
                               duration=4.0)
    spine = list(arrivals(spec, SEED))
    print(f"recorded {len(spine)} arrivals over {spine[-1][0]:.1f} s\n")

    rows = []
    for rate, label in ((1.0, "1x light"), (2.0, "2x medium"),
                        (3.0, "3x heavy")):
        for mode in (NotificationMode.EXCLUSIVE,
                     NotificationMode.REUSEPORT,
                     NotificationMode.HERMES):
            summary, clients = replay(spec, spine, mode, rate)
            rows.append([label, mode.value,
                         f"{summary['avg_ms']:.2f}",
                         f"{summary['p99_ms']:.2f}",
                         f"{summary['completed']}",
                         f"{clients.connections_refused}"])
    print(render_table(
        ["replay", "mode", "avg ms", "p99 ms", "completed", "refused"],
        rows, title="Same arrivals, three modes, three replay rates"))
    print("\nEvery mode sees the exact same byte stream — only the "
          "dispatch decision differs.")


if __name__ == "__main__":
    main()
