"""Fig. 3 — the lag effect of connection load imbalance.

A large population of long-lived connections is established quietly; later
a synchronized traffic surge hits all of them at once (the quantitative-
trading pattern).  Under epoll exclusive the connections concentrated on a
few workers, so the surge overloads those cores and P999 latency spikes
from the normal few-hundred-µs regime to tens of ms.

We reproduce both the figure's time series (traffic rate, #connections
through the port) and the latency consequence the section narrates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Tuple

from ..cell import build_cell
from ..kernel.tcp import ConnState
from ..lb.server import NotificationMode
from ..sim.monitor import Samples
from ..workloads.distributions import FixedFactory
from ..workloads.generator import WorkloadSpec
from .registry import CellSpec, check_claims, lined_experiment

__all__ = ["LagEffectResult", "run_fig3"]


@dataclass
class LagEffectResult:
    mode: str
    #: (time, requests/s) series, per-100ms buckets.
    traffic_series: List[Tuple[float, float]]
    #: (time, #established connections) series.
    conn_series: List[Tuple[float, float]]
    #: Latency stats before the surge window.
    normal_p999_ms: float
    #: Latency stats inside the surge window.
    surge_p999_ms: float
    surge_avg_ms: float
    #: Per-worker connection counts at surge start (the imbalance input).
    conns_per_worker: List[int]


def run_fig3(mode: NotificationMode = NotificationMode.EXCLUSIVE,
             n_workers: int = 8, n_connections: int = 400,
             connect_window: float = 2.0, surge_at: float = 4.0,
             surge_requests: int = 3, seed: int = 17) -> LagEffectResult:
    """Establish, idle, surge; measure the amplification."""
    # Background trickle (the paper's 'normal' latency regime) — small
    # requests at modest rate throughout.
    factory = FixedFactory(event_times=(250e-6,))
    trickle = WorkloadSpec(name="fig3-trickle", conn_rate=150.0,
                           duration=surge_at + 2.0, factory=factory,
                           ports=(443,), requests_per_conn=1)
    cell = build_cell(trickle, mode, seed, n_workers=n_workers,
                      traffic_stream="trickle")
    env, registry, server = cell.env, cell.registry, cell.server

    # Long-lived connections established during the connect window; they
    # stay open (no FIN) and idle until the surge.
    from ..kernel.tcp import Connection
    from ..workloads.generator import client_four_tuple

    lived_rng = registry.stream("lived")
    lived_conns: List[Connection] = []

    def establish_lived(env):
        gap = connect_window / n_connections
        for i in range(n_connections):
            conn = Connection(client_four_tuple(lived_rng, 1 << 16, 443),
                              created_time=env.now)
            if server.connect(conn):
                lived_conns.append(conn)
            yield env.timeout(gap)

    env.process(establish_lived(env))

    # Time-series sampling (100 ms buckets).
    completed_marks: List[float] = []
    server_metrics = server.metrics
    original_record = server_metrics.record_request

    def recording(latency, worker_id, **kwargs):
        completed_marks.append(env.now)
        original_record(latency, worker_id, **kwargs)

    server_metrics.record_request = recording

    conn_series: List[Tuple[float, float]] = []

    def sample_conns():
        conn_series.append(
            (env.now, sum(len(w.conns) for w in server.workers)))
        if env.now < surge_at + 3.0:
            env.schedule_callback(0.1, sample_conns)

    env.schedule_callback(0.1, sample_conns)

    # The synchronized surge: every lived connection fires requests at once.
    surge_rng = registry.stream("surge")

    def fire_surge():
        heavy = FixedFactory(event_times=(400e-6, 400e-6))
        for conn in lived_conns:
            if conn.state not in (ConnState.RESET, ConnState.REFUSED,
                                  ConnState.CLOSED):
                for _ in range(surge_requests):
                    server.deliver(conn, heavy.build(surge_rng))

    env.schedule_callback(surge_at, fire_surge)

    # Split latency samples into the normal and surge windows.
    normal = Samples("normal")
    surge = Samples("surge")
    original_add = server_metrics.request_latencies.add

    def split_add(value):
        (surge if env.now >= surge_at else normal).add(value)
        original_add(value)

    server_metrics.request_latencies.add = split_add

    conns_at_surge: List[int] = []
    env.schedule_callback(
        surge_at - 1e-9,
        lambda: conns_at_surge.extend(len(w.conns) for w in server.workers))

    cell.run(until=surge_at + 3.0)

    # Bucket completed requests into a rate series.
    horizon = surge_at + 3.0
    buckets = int(horizon / 0.1)
    counts = [0] * (buckets + 1)
    for t in completed_marks:
        counts[min(buckets, int(t / 0.1))] += 1
    traffic_series = [(i * 0.1, c / 0.1) for i, c in enumerate(counts)]

    return LagEffectResult(
        mode=mode.value,
        traffic_series=traffic_series,
        conn_series=conn_series,
        normal_p999_ms=normal.p999 * 1e3,
        surge_p999_ms=surge.p999 * 1e3,
        surge_avg_ms=surge.mean * 1e3,
        conns_per_worker=conns_at_surge,
    )


def _line(r: LagEffectResult) -> str:
    return (f"{r.mode}: conns/worker at surge {r.conns_per_worker} "
            f"normal P999 {r.normal_p999_ms:.2f} ms -> "
            f"surge P999 {r.surge_p999_ms:.2f} ms")


def _cells(seed, overrides):
    params = {"n_workers": overrides.get("n_workers", 8),
              "n_connections": overrides.get("n_connections", 400)}
    return tuple(
        CellSpec("fig3", mode.value, dict(params, mode=mode.value), seed)
        for mode in (NotificationMode.EXCLUSIVE, NotificationMode.HERMES))


def _run_cell(cell):
    p = cell.params
    r = run_fig3(NotificationMode(p["mode"]), n_workers=p["n_workers"],
                 n_connections=p["n_connections"], seed=cell.seed)
    return dict(asdict(r), rendered=_line(r))


def _claims(merged):
    return check_claims(merged["cells"], (
        ("exclusive_concentrates_long_lived_conns", ["exclusive"],
         lambda ex: (max(ex["conns_per_worker"])
                     > 0.8 * sum(ex["conns_per_worker"]),
                     f"busiest worker {max(ex['conns_per_worker'])} of "
                     f"{sum(ex['conns_per_worker'])}")),
        ("exclusive_normal_tail_sub_ms", ["exclusive"],
         lambda ex: (ex["normal_p999_ms"] < 1.0,
                     f"normal P999 {ex['normal_p999_ms']:.2f} ms")),
        ("exclusive_surge_tail_over_30ms", ["exclusive"],
         lambda ex: (ex["surge_p999_ms"] > 30.0,
                     f"surge P999 {ex['surge_p999_ms']:.2f} ms")),
        ("surge_amplifies_exclusive_over_3x_hermes", ["exclusive", "hermes"],
         lambda ex, hermes: (
             ex["surge_p999_ms"] > 3 * hermes["surge_p999_ms"],
             f"surge P999 exclusive {ex['surge_p999_ms']:.2f} ms vs "
             f"hermes {hermes['surge_p999_ms']:.2f} ms")),
        ("conn_series_shows_over_300_established", ["exclusive"],
         lambda ex: (max(c for _, c in ex["conn_series"]) > 300,
                     f"peak {max(c for _, c in ex['conn_series'])} conns")),
    ))


lined_experiment("fig3", "Lag effect of connection load imbalance",
                 _cells, _run_cell, default_seed=17, claims=_claims,
                 tunables={"n_workers": "workers behind the device",
                           "n_connections": "long-lived connections "
                                            "before the surge"})
