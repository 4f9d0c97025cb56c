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
from ..lb.server import LBServer, NotificationMode
from ..sim.engine import Environment
from ..sim.rng import RngRegistry
from ..workloads.cases import build_case_workload
from ..workloads.generator import TrafficGenerator
from .registry import CellSpec, lined_experiment

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
    env = Environment()
    registry = RngRegistry(seed)
    nic = Nic(n_queues=n_workers,
              hash_seed=registry.stream("nic-hash").randrange(2 ** 32))
    balancer = None
    if rss_plus_plus:
        from ..kernel.nic import RssPlusPlusBalancer
        balancer = RssPlusPlusBalancer(nic, buckets_per_round=8)
        nic.on_receive = balancer.observe

        def rebalance_loop(env):
            while True:
                yield env.timeout(0.2)
                balancer.rebalance()

        env.process(rebalance_loop(env), name="rss++")
    server = LBServer(env, n_workers=n_workers, ports=[443], mode=mode,
                      nic=nic,
                      hash_seed=registry.stream("hash").randrange(2 ** 32))
    server.start()
    # case4-style heterogeneous costs: same packet counts, wildly
    # different CPU costs per connection.
    spec = build_case_workload("case4", load, n_workers=n_workers,
                               duration=duration, ports=(443,))
    gen = TrafficGenerator(env, server, registry.stream("traffic"), spec)
    gen.start()
    env.run(until=duration + 1.0)

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


lined_experiment("fig7", "RSS packet spread vs CPU imbalance",
                 _cells, _run_cell, default_seed=37,
                 tunables={"n_workers": "workers behind the device",
                           "duration": "workload duration (s)",
                           "load": "load level (default medium)"})


if __name__ == "__main__":  # pragma: no cover - manual harness
    for rss_pp in (False, True):
        print(_rendered(run_fig7(rss_plus_plus=rss_pp), rss_pp))
