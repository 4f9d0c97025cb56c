"""Experiment harnesses — one registered module per table/figure.

Each module registers one :class:`~repro.experiments.registry.ExperimentSpec`
(its cells, merge, rendered table and paper claims), and the registry is
the one way to run it::

    python -m repro experiment table3 --set cases='["case2"]'
    python -m repro experiment table3 --jobs 4   # same cells, in parallel

or, in Python, ``registry.get("table3").run(seed, overrides)``, which
returns the merged JSON document that ``claims`` and ``render`` read.
``--set key=value`` accepts only the spec's declared tunables (``repro
list`` shows them), so a smaller grid is one flag away.

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
| pool_capacity | Connection-pool exhaustion under uneven distribution  |
| isolation   | Tenant performance isolation                            |
| scaling     | Mode ordering vs worker count                           |
| resilience  | Fault × mode resilience matrix                          |
| prequal_ablation | Prequal tunables under load spikes                 |
| fleet_scale | Fleet scale-out: stateful vs stateless under churn      |
| splice_crossover | Splice vs Hermes p99 crossover                     |
| fuzz_regressions | Fuzzer finds replayed as regression scenarios      |
"""

from .._lazy import lazy_exports

__all__ = [
    "CellResult",
    "MODES_UNDER_TEST",
    "run_case_cell",
    "run_spec",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".common": ("CellResult", "MODES_UNDER_TEST", "run_case_cell",
                "run_spec"),
})
