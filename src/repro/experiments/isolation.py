"""Tenant performance isolation — the paper's central motivation.

§1: "Since each worker handles traffic from a large number of tenants,
preventing worker overload is crucial to preserving inter-tenant
performance isolation."

The scenario: a small, latency-sensitive tenant shares a device with a
dominant tenant (the §7 skew: top tenants carry 40%+ of traffic) whose
requests are heavy.  Under epoll exclusive, both tenants concentrate on
the same few workers, so the whale's load lands directly on the minnow's
latency.  Hermes spreads both and keeps steering new connections away
from busy workers, so the minnow's P99 stays near its intrinsic service
time.

We report the small tenant's P99 and 499 (client-timeout) rate per mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..lb.server import LBServer, NotificationMode
from ..sim.engine import Environment
from ..sim.rng import RngRegistry
from ..workloads.distributions import QuantileSampler, RequestFactory
from ..workloads.generator import TrafficGenerator, WorkloadSpec
from .registry import CellSpec, check_claims, lined_experiment

__all__ = ["IsolationResult", "run_isolation"]

_MS = 1e-3

SMALL_TENANT_PORT = 20001
WHALE_TENANT_PORT = 20002


@dataclass(frozen=True)
class IsolationResult:
    mode: str
    #: The latency-sensitive tenant's view.
    small_avg_ms: float
    small_p99_ms: float
    small_timeouts_499: int
    small_completed: int
    #: The whale's throughput (it must not be starved either).
    whale_completed: int


def run_isolation(mode: NotificationMode, n_workers: int = 8,
                  duration: float = 4.0, seed: int = 71,
                  client_deadline: float = 0.2) -> IsolationResult:
    env = Environment()
    registry = RngRegistry(seed)
    server = LBServer(env, n_workers=n_workers,
                      ports=[SMALL_TENANT_PORT, WHALE_TENANT_PORT],
                      mode=mode,
                      hash_seed=registry.stream("hash").randrange(2 ** 32))
    server.start()

    # The minnow: tiny requests, long-lived connections, cares about P99.
    small_factory = RequestFactory(
        service_sampler=QuantileSampler([(0.5, 0.2 * _MS),
                                         (0.99, 0.8 * _MS)]),
        min_events=1, max_events=1, handler="small")
    small = WorkloadSpec(
        name="small-tenant", conn_rate=60.0, duration=duration,
        factory=small_factory, ports=(SMALL_TENANT_PORT,),
        tenant_ids=(1,),
        requests_per_conn=20, request_gap_mean=0.05,
        request_timeout=client_deadline)
    small_gen = TrafficGenerator(env, server,
                                 registry.stream("small"), small)

    # The whale: heavy requests at volume (compression/SSL grade work).
    whale_factory = RequestFactory(
        service_sampler=QuantileSampler([(0.5, 8 * _MS), (0.9, 30 * _MS),
                                         (0.99, 120 * _MS)], cap=0.4),
        min_events=1, max_events=2, handler="whale")
    whale = WorkloadSpec(
        name="whale-tenant", conn_rate=24.0, duration=duration,
        factory=whale_factory, ports=(WHALE_TENANT_PORT,),
        tenant_ids=(2,),
        requests_per_conn=10, request_gap_mean=0.04)
    whale_gen = TrafficGenerator(env, server,
                                 registry.stream("whale"), whale)

    small_gen.start()
    whale_gen.start()
    env.run(until=duration + 1.5)

    small_lat = server.metrics.tenant_latencies.get(1)
    whale_lat = server.metrics.tenant_latencies.get(2)
    return IsolationResult(
        mode=mode.value,
        small_avg_ms=small_lat.mean * 1e3 if small_lat else 0.0,
        small_p99_ms=small_lat.p99 * 1e3 if small_lat else 0.0,
        small_timeouts_499=small_gen.stats.timeouts_499,
        small_completed=len(small_lat) if small_lat else 0,
        whale_completed=len(whale_lat) if whale_lat else 0,
    )


def _line(r: IsolationResult) -> str:
    return (f"{r.mode:10s} small tenant: avg {r.small_avg_ms:7.2f} ms  "
            f"p99 {r.small_p99_ms:8.2f} ms  499s "
            f"{r.small_timeouts_499:4d}  completed {r.small_completed}")


def _cells(seed, overrides):
    params = {"n_workers": overrides.get("n_workers", 8),
              "duration": overrides.get("duration", 4.0)}
    return tuple(
        CellSpec("isolation", mode.value, dict(params, mode=mode.value),
                 seed)
        for mode in (NotificationMode.EXCLUSIVE, NotificationMode.REUSEPORT,
                     NotificationMode.HERMES))


def _run_cell(cell):
    from dataclasses import asdict
    p = cell.params
    r = run_isolation(NotificationMode(p["mode"]),
                      n_workers=p["n_workers"], duration=p["duration"],
                      seed=cell.seed)
    return dict(asdict(r), rendered=_line(r))


def _claims(merged):
    cells = merged["cells"]
    modes = ["exclusive", "reuseport", "hermes"]

    def small_tenant(hermes, excl, reuse):
        return (hermes["small_timeouts_499"] <= excl["small_timeouts_499"]
                and hermes["small_timeouts_499"]
                < reuse["small_timeouts_499"] / 2
                and hermes["small_p99_ms"] < reuse["small_p99_ms"] / 2
                and hermes["small_p99_ms"] <= 1.1 * excl["small_p99_ms"],
                f"499s hermes {hermes['small_timeouts_499']}, exclusive "
                f"{excl['small_timeouts_499']}, reuseport "
                f"{reuse['small_timeouts_499']}; p99 "
                f"{hermes['small_p99_ms']:.2f} / {excl['small_p99_ms']:.2f}"
                f" / {reuse['small_p99_ms']:.2f} ms")

    def same_traffic(*docs):
        counts = [doc["small_completed"] for doc in docs]
        return (max(counts) - min(counts) <= 0.05 * max(counts),
                f"small-tenant completions {counts}")

    return check_claims(cells, (
        ("hermes_isolates_the_small_tenant", ["hermes", "exclusive",
                                              "reuseport"], small_tenant),
        ("nobody_starves_the_whale", modes,
         lambda *docs: (all(doc["whale_completed"] > 500 for doc in docs),
                        f"whale completions "
                        f"{[doc['whale_completed'] for doc in docs]}")),
        ("modes_complete_the_same_small_tenant_traffic", modes,
         same_traffic),
    ))


lined_experiment("isolation", "Tenant performance isolation",
                 _cells, _run_cell, default_seed=71, claims=_claims,
                 tunables={"n_workers": "workers behind the device",
                           "duration": "workload duration (s)"})
