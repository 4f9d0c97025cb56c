"""Experiment harnesses — one module per table/figure of the paper.

Each module exposes ``run_*`` functions returning structured results and a
``__main__`` harness that prints the paper-style rows/series.  Each
registered experiment checks the shape of its result with the paper
claims of its ``ExperimentSpec.claims``.

| Module      | Reproduces                                              |
|-------------|---------------------------------------------------------|
| table1      | Region request size / processing-time quantiles         |
| table2      | CPU imbalance within a device and across a region       |
| table3      | The headline 4-case × 3-mode × 3-load grid              |
| table4      | Case distribution across regions + impacted-traffic share|
| table5      | Hermes component CPU overhead                           |
| fig3        | Lag effect of connection imbalance under surges         |
| fig45       | Per-worker epoll_wait event/blocking statistics         |
| fig7        | NIC queues balanced vs CPU cores imbalanced             |
| fig11       | Delayed probes before/after the canary rollout          |
| fig12       | Unit cost of infra before/after Hermes                  |
| fig13       | SD of per-worker CPU and connection counts, 3 modes     |
| fig14       | Coarse-filter pass ratio + scheduler frequency vs load  |
| fig15       | The θ/Avg sweep                                         |
| figa4       | The A3/A4 walkthrough                                   |
| figa5       | Forwarding rules per port CDF                           |
| sec7        | Backend RR restarts, connection reuse, crash blast      |
| appc        | Group scheduling: locality/balance; >64-worker devices; |
|             | sandbox isolation and phased scaling (case 2)           |
| ablations   | Design-choice ablations (§5)                            |
| baselines   | Every notification mode on identical traffic            |
"""

from .._lazy import lazy_exports

__all__ = [
    "CellResult",
    "MODES_UNDER_TEST",
    "compare_modes",
    "run_case_cell",
    "run_spec",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".common": ("CellResult", "MODES_UNDER_TEST", "compare_modes",
                "run_case_cell", "run_spec"),
})
