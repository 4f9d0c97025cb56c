"""Fig. 7 — packets spread evenly over NIC queues, CPUs stay imbalanced.

The motivation figure for "userspace status first": RSS hashes *packets*
uniformly across hardware queues, but L7 connection processing cost varies
so widely that per-core CPU utilization stays severely unbalanced.  We
attach a NIC model to an exclusive-mode device, drive heterogeneous
connections, and report both distributions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List

from ..analysis.stats import coefficient_of_variation
from ..kernel.nic import Nic
from ..cell import build_cell
from ..lb.server import NotificationMode
from ..sim.rng import RngRegistry
from ..workloads.cases import build_case_workload
from .registry import CellSpec, check_claims, lined_experiment

__all__ = ["NicVsCpuResult", "run_fig7"]


@dataclass
class NicVsCpuResult:
    mode: str
    #: Per-queue packet counts, normalized to the mean.
    nic_queue_share: List[float]
    #: Per-core CPU utilization.
    cpu_utils: List[float]
    nic_cov: float
    cpu_cov: float
    #: RSS++ rebalancing rounds applied (0 = plain RSS).
    rss_rebalances: int = 0


def run_fig7(mode: NotificationMode = NotificationMode.EXCLUSIVE,
             n_workers: int = 8, duration: float = 4.0,
             seed: int = 37, load: str = "medium",
             rss_plus_plus: bool = False) -> NicVsCpuResult:
    """``rss_plus_plus=True`` adds periodic RSS++ indirection rebalancing
    — §3's demonstration that even *active* packet-level balancing cannot
    fix L7 CPU imbalance."""
    # case4-style heterogeneous costs: same packet counts, wildly
    # different CPU costs per connection.
    spec = build_case_workload("case4", load, n_workers=n_workers,
                               duration=duration, ports=(443,))
    # Streams are keyed by name, so this draw equals the cell registry's.
    nic = Nic(n_queues=n_workers,
              hash_seed=RngRegistry(seed).stream("nic-hash")
              .randrange(2 ** 32))
    cell = build_cell(spec, mode, seed, n_workers=n_workers, nic=nic)
    balancer = None
    if rss_plus_plus:
        from ..kernel.nic import RssPlusPlusBalancer
        balancer = RssPlusPlusBalancer(nic, buckets_per_round=8)
        nic.on_receive = balancer.observe

        def rebalance_loop(env):
            while True:
                yield env.timeout(0.2)
                balancer.rebalance()

        cell.env.process(rebalance_loop(cell.env), name="rss++")
    server = cell.run(until=duration + 1.0).server

    packets = nic.queue_packets
    total = sum(packets) or 1
    mean_share = total / len(packets)
    cpu = server.metrics.cpu_utilizations()
    return NicVsCpuResult(
        mode=mode.value,
        nic_queue_share=[p / mean_share for p in packets],
        cpu_utils=cpu,
        nic_cov=coefficient_of_variation([float(p) for p in packets]),
        cpu_cov=coefficient_of_variation(cpu),
        rss_rebalances=balancer.rebalances if balancer else 0,
    )


def _rendered(result: NicVsCpuResult, rss_pp: bool) -> str:
    label = "RSS++" if rss_pp else "RSS  "
    shares = [round(s, 2) for s in result.nic_queue_share]
    utils = [round(u, 2) for u in result.cpu_utils]
    return (f"{label} NIC queue CoV: {result.nic_cov:.3f}  "
            f"CPU core CoV: {result.cpu_cov:.3f}  "
            f"(rebalances: {result.rss_rebalances})\n"
            f"  queue shares: {shares}\n"
            f"  cpu utils:    {utils}")


def _cells(seed, overrides):
    params = {"n_workers": overrides.get("n_workers", 8),
              "duration": overrides.get("duration", 4.0),
              "load": overrides.get("load", "medium")}
    return tuple(
        CellSpec("fig7", "rss++" if rss_pp else "rss",
                 dict(params, rss_plus_plus=rss_pp), seed)
        for rss_pp in (False, True))


def _run_cell(cell):
    p = cell.params
    result = run_fig7(n_workers=p["n_workers"], duration=p["duration"],
                      seed=cell.seed, load=p["load"],
                      rss_plus_plus=p["rss_plus_plus"])
    return dict(asdict(result),
                rendered=_rendered(result, p["rss_plus_plus"]))


def _packets_even_cpus_not(arm: str):
    """Rule: ``arm`` spreads packets evenly while CPU load diverges."""
    def check(doc):
        return (doc["nic_cov"] < 0.25
                and doc["cpu_cov"] > 1.5 * doc["nic_cov"],
                f"NIC queue CoV {doc['nic_cov']:.3f} < 0.25, CPU CoV "
                f"{doc['cpu_cov']:.3f} > 1.5x")
    return (f"{arm.replace('+', 'p')}_packets_even_cpus_not", [arm], check)


def _claims(merged):
    return check_claims(merged["cells"], (
        _packets_even_cpus_not("rss"),
        ("rss_busiest_core_over_2x_idlest", ["rss"],
         lambda rss: (max(rss["cpu_utils"]) > 2 * min(rss["cpu_utils"]),
                      f"cpu utils {max(rss['cpu_utils']):.3f} vs "
                      f"{min(rss['cpu_utils']):.3f}")),
        ("rsspp_rebalances_over_5_times", ["rss++"],
         lambda pp: (pp["rss_rebalances"] > 5,
                     f"{pp['rss_rebalances']} rebalances")),
        _packets_even_cpus_not("rss++"),
        ("rsspp_leaves_cpu_imbalance_within_20pct", ["rss", "rss++"],
         lambda rss, pp: (abs(pp["cpu_cov"] - rss["cpu_cov"])
                          <= 0.2 * rss["cpu_cov"],
                          f"CPU CoV {pp['cpu_cov']:.3f} vs "
                          f"{rss['cpu_cov']:.3f}")),
    ))


lined_experiment("fig7", "RSS packet spread vs CPU imbalance",
                 _cells, _run_cell, default_seed=37, claims=_claims,
                 tunables={"n_workers": "workers behind the device",
                           "duration": "workload duration (s)",
                           "load": "load level (default medium)"})


if __name__ == "__main__":  # pragma: no cover - manual harness
    for rss_pp in (False, True):
        print(_rendered(run_fig7(rss_plus_plus=rss_pp), rss_pp))
