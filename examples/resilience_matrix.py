#!/usr/bin/env python3
"""The resilience matrix: fault class × notification mode.

The paper motivates Hermes with failure pathologies, not just averages: a
hung worker turns a 30 ms request into a 440 s one under epoll-exclusive
(§2, Appendix C), and one crashed worker once took out >70% of a device's
connections (§7).  This example runs the declarative fault scenarios from
``repro.faults`` — hang trains, crashes with detection windows and
restarts, slow workers, NIC loss bursts — against EXCLUSIVE, REUSEPORT,
HERMES, PREQUAL and SPLICE on identical traffic, through the registered
``resilience`` experiment, and prints the resulting matrix:

- **blast radius** — fraction of in-flight connections stalled or killed;
- **recovery time** — how long the completion-latency p99 stays degraded
  after the fault fires;
- **hung requests** — completions slower than the 50 ms hang threshold.

Expect EXCLUSIVE (LIFO concentration: the busiest worker carries most of
the device) to show the widest blast radius and slowest recovery, and
HERMES (spreading + steering away from the victim) the smallest.

Run:  python examples/resilience_matrix.py
"""

from repro.experiments.registry import get
from repro.experiments.resilience import matrix_from_doc
from repro.faults import SCENARIOS, render_matrix, run_resilience_cell
from repro.lb.server import NotificationMode


def main() -> None:
    matrix = matrix_from_doc(get("resilience").run(7, {"n_workers": 8}))
    print(render_matrix(matrix))

    hang_ex = matrix.cell("worker_hang", "exclusive")
    hang_he = matrix.cell("worker_hang", "hermes")
    crash_ex = matrix.cell("worker_crash", "exclusive")
    crash_he = matrix.cell("worker_crash", "hermes")
    print(f"\nworker_hang:  blast {hang_ex.blast_radius * 100:.0f}% -> "
          f"{hang_he.blast_radius * 100:.0f}%, hung requests "
          f"{hang_ex.hung_requests} -> {hang_he.hung_requests} "
          f"(exclusive -> hermes)")
    print(f"worker_crash: blast {crash_ex.blast_radius * 100:.0f}% -> "
          f"{crash_he.blast_radius * 100:.0f}%, recovery "
          f"{crash_ex.recovery_time:.1f}s -> {crash_he.recovery_time:.1f}s")
    print(f"\nscenarios available: {', '.join(SCENARIOS)}")

    # Any single cell can be run on its own, e.g. for a quick A/B:
    cell = run_resilience_cell("worker_hang", NotificationMode.REUSEPORT,
                               seed=11)
    print(f"one-off cell (seed 11): worker_hang/reuseport p99 "
          f"{cell.p99_ms:.2f} ms, blast {cell.blast_radius * 100:.0f}%")


if __name__ == "__main__":
    main()
