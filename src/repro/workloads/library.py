"""Trace-driven workload library beyond the paper's four cases.

Each :class:`WorkloadFamily` is a named generator of :class:`Trace`
objects — replayable via :class:`TraceReplayer` against any target that
speaks the ``connect``/``deliver`` protocol (an :class:`~repro.lb.server.
LBServer`, a :class:`~repro.fleet.Fleet`, or a test sink).  Families are
pure functions of ``(params, rng)``: the same parameters and seeded stream
always produce a byte-identical trace, which is what lets the fuzzer
shrink and replay scenarios deterministically.

The five families cover the regimes the related work studies but the
paper's evaluation does not:

- ``diurnal`` — a sinusoidal day-curve of connection arrivals (the cloud
  LB's steady-state shape).
- ``flash_crowd`` — a base rate with a sudden ``spike_factor``× window
  (breaking-news traffic).
- ``heavy_hitter_churn`` — multi-tenant traffic where the hot tenant
  rotates, so the heavy hitter keeps moving between ports.
- ``fanout_chain`` — XLB's microservice setting: each root request spawns
  a ``fanout``-ary tree of short internal calls, ``depth`` hops deep.
- ``longlived_surge`` — Concury's regime at 10× the Fig. 3 scale: a large
  population of long-lived connections established quietly, then hit by
  synchronized request bursts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..kernel.hash import FourTuple
from ..sim.rng import Stream
from .generator import client_four_tuple
from .trace import Trace

__all__ = [
    "FAMILIES",
    "WorkloadFamily",
    "build_family_trace",
    "family_names",
]


def _service_times(rng: Stream, mean_us: float, n: int) -> Tuple[float, ...]:
    return tuple(rng.expovariate(1.0 / (mean_us * 1e-6)) for _ in range(n))


def _record_conn(trace: Trace, rng: Stream, time: float, conn_key: int,
                 four_tuple: FourTuple, tenant_id: int, n_requests: int,
                 mean_service_us: float, size: int, gap_mean: float) -> None:
    """Record one open → requests → close connection lifetime."""
    trace.record_open(time, conn_key, four_tuple, tenant_id=tenant_id)
    at = time + 100e-6
    for _ in range(n_requests):
        trace.record_request(at, conn_key, four_tuple,
                             _service_times(rng, mean_service_us, 1),
                             size=size, tenant_id=tenant_id)
        if gap_mean > 0:
            at += rng.expovariate(1.0 / gap_mean)
    trace.record_close(at + 100e-6, conn_key, four_tuple)


def _thinned_arrivals(rng: Stream, duration: float, peak: float,
                      rate_at: Callable[[float], float]) -> List[float]:
    """Arrival times of a non-homogeneous Poisson process (thinning)."""
    times: List[float] = []
    t = 0.0
    if peak <= 0:
        return times
    while True:
        t += rng.expovariate(peak)
        if t >= duration:
            return times
        if rng.random() < rate_at(t) / peak:
            times.append(t)


@dataclass(frozen=True)
class WorkloadFamily:
    """A named, seeded generator of traces.

    ``sampler`` draws a random-but-valid parameter dict; ``builder``
    materializes a trace from one; ``shrinkers`` maps parameter names to
    their minimum value — the generic :meth:`shrink` halves each one
    toward that floor, giving the fuzzer's shrinker smaller candidate
    workloads that stay in-family.
    """

    name: str
    description: str
    defaults: Dict[str, object]
    sampler: Callable[[Stream], Dict[str, object]]
    builder: Callable[[Dict[str, object], Stream], Trace]
    shrinkers: Dict[str, float] = field(default_factory=dict)

    def sample(self, rng: Stream) -> Dict[str, object]:
        params = dict(self.defaults)
        params.update(self.sampler(rng))
        return params

    def build(self, params: Dict[str, object], rng: Stream) -> Trace:
        merged = dict(self.defaults)
        merged.update(params)
        return self.builder(merged, rng)

    def shrink(self, params: Dict[str, object]) -> List[Dict[str, object]]:
        candidates: List[Dict[str, object]] = []
        for key, floor in self.shrinkers.items():
            value = params.get(key, self.defaults.get(key))
            if value is None:
                continue
            if isinstance(value, int):
                smaller: object = max(int(floor), value // 2)
            else:
                smaller = max(float(floor), float(value) / 2)
            if smaller != value:
                shrunk = dict(params)
                shrunk[key] = smaller
                candidates.append(shrunk)
        return candidates


# -- diurnal ----------------------------------------------------------------

def _sample_diurnal(rng: Stream) -> Dict[str, object]:
    return {
        "duration": round(rng.uniform(0.8, 2.0), 3),
        "base_rate": round(rng.uniform(40.0, 120.0), 1),
        "amplitude": round(rng.uniform(0.3, 0.9), 2),
        "requests_per_conn": rng.randrange(1, 4),
    }


def _build_diurnal(params: Dict[str, object], rng: Stream) -> Trace:
    duration = float(params["duration"])
    base = float(params["base_rate"])
    amplitude = float(params["amplitude"])
    period = float(params["period"])
    peak = base * (1.0 + amplitude)

    def rate_at(t: float) -> float:
        return base * (1.0 + amplitude * math.sin(2 * math.pi * t / period))

    trace = Trace()
    ports = list(params["ports"])
    for conn_key, at in enumerate(
            _thinned_arrivals(rng, duration, peak, rate_at), start=1):
        tenant = rng.randrange(len(ports))
        four_tuple = client_four_tuple(rng, int(params["n_client_ips"]),
                                       ports[tenant])
        _record_conn(trace, rng, at, conn_key, four_tuple, tenant,
                     int(params["requests_per_conn"]),
                     float(params["mean_service_us"]),
                     int(params["size"]), float(params["request_gap_mean"]))
    return trace


# -- flash crowd ------------------------------------------------------------

def _sample_flash_crowd(rng: Stream) -> Dict[str, object]:
    duration = round(rng.uniform(0.8, 2.0), 3)
    spike_at = round(rng.uniform(0.2, 0.5) * duration, 3)
    return {
        "duration": duration,
        "base_rate": round(rng.uniform(20.0, 60.0), 1),
        "spike_at": spike_at,
        "spike_duration": round(rng.uniform(0.1, 0.3) * duration, 3),
        "spike_factor": round(rng.uniform(4.0, 10.0), 1),
        "requests_per_conn": rng.randrange(1, 3),
    }


def _build_flash_crowd(params: Dict[str, object], rng: Stream) -> Trace:
    duration = float(params["duration"])
    base = float(params["base_rate"])
    factor = float(params["spike_factor"])
    spike_at = float(params["spike_at"])
    spike_end = spike_at + float(params["spike_duration"])
    peak = base * factor

    def rate_at(t: float) -> float:
        return peak if spike_at <= t < spike_end else base

    trace = Trace()
    ports = list(params["ports"])
    for conn_key, at in enumerate(
            _thinned_arrivals(rng, duration, peak, rate_at), start=1):
        tenant = rng.randrange(len(ports))
        four_tuple = client_four_tuple(rng, int(params["n_client_ips"]),
                                       ports[tenant])
        _record_conn(trace, rng, at, conn_key, four_tuple, tenant,
                     int(params["requests_per_conn"]),
                     float(params["mean_service_us"]),
                     int(params["size"]), float(params["request_gap_mean"]))
    return trace


# -- heavy-hitter tenant churn ----------------------------------------------

def _sample_heavy_hitter(rng: Stream) -> Dict[str, object]:
    return {
        "duration": round(rng.uniform(0.8, 2.0), 3),
        "rate": round(rng.uniform(40.0, 120.0), 1),
        "n_tenants": rng.randrange(3, 7),
        "hot_share": round(rng.uniform(0.5, 0.9), 2),
        "rotate_every": round(rng.uniform(0.2, 0.6), 3),
    }


def _build_heavy_hitter(params: Dict[str, object], rng: Stream) -> Trace:
    duration = float(params["duration"])
    rate = float(params["rate"])
    n_tenants = int(params["n_tenants"])
    hot_share = float(params["hot_share"])
    rotate_every = float(params["rotate_every"])
    base_port = int(params["base_port"])

    trace = Trace()
    for conn_key, at in enumerate(
            _thinned_arrivals(rng, duration, rate, lambda t: rate), start=1):
        hot = int(at / rotate_every) % n_tenants
        if rng.random() < hot_share or n_tenants == 1:
            tenant = hot
        else:
            tenant = rng.randrange(n_tenants - 1)
            if tenant >= hot:
                tenant += 1
        four_tuple = client_four_tuple(rng, int(params["n_client_ips"]),
                                       base_port + tenant)
        _record_conn(trace, rng, at, conn_key, four_tuple, tenant,
                     int(params["requests_per_conn"]),
                     float(params["mean_service_us"]),
                     int(params["size"]), float(params["request_gap_mean"]))
    return trace


# -- microservice fan-out chains --------------------------------------------

def _sample_fanout(rng: Stream) -> Dict[str, object]:
    return {
        "duration": round(rng.uniform(0.5, 1.5), 3),
        "root_rate": round(rng.uniform(10.0, 40.0), 1),
        "fanout": rng.randrange(2, 4),
        "depth": rng.randrange(1, 4),
    }


def _build_fanout(params: Dict[str, object], rng: Stream) -> Trace:
    duration = float(params["duration"])
    root_rate = float(params["root_rate"])
    fanout = int(params["fanout"])
    depth = int(params["depth"])
    hop_delay = float(params["hop_delay"])
    ports = list(params["ports"])

    trace = Trace()
    conn_key = 0

    def spawn(at: float, level: int) -> None:
        nonlocal conn_key
        conn_key += 1
        port = ports[level % len(ports)]
        four_tuple = client_four_tuple(rng, int(params["n_client_ips"]), port)
        _record_conn(trace, rng, at, conn_key, four_tuple, level, 1,
                     float(params["mean_service_us"]),
                     int(params["size"]), 0.0)
        if level < depth:
            for _ in range(fanout):
                spawn(at + hop_delay * rng.uniform(0.8, 1.2), level + 1)

    for at in _thinned_arrivals(rng, duration, root_rate,
                                lambda t: root_rate):
        spawn(at, 0)
    return trace


# -- long-lived-connection surges (10× Fig. 3) ------------------------------

def _sample_longlived(rng: Stream) -> Dict[str, object]:
    return {
        "n_connections": rng.randrange(1000, 4001),
        "surge_requests": rng.randrange(2, 5),
        "n_bursts": rng.randrange(1, 3),
    }


def _build_longlived(params: Dict[str, object], rng: Stream) -> Trace:
    n_connections = int(params["n_connections"])
    connect_window = float(params["connect_window"])
    surge_at = float(params["surge_at"])
    surge_requests = int(params["surge_requests"])
    n_bursts = int(params["n_bursts"])
    burst_gap = float(params["burst_gap"])
    ports = list(params["ports"])

    trace = Trace()
    conns = []
    for conn_key in range(1, n_connections + 1):
        at = rng.uniform(0.0, connect_window)
        tenant = rng.randrange(len(ports))
        four_tuple = client_four_tuple(rng, int(params["n_client_ips"]),
                                       ports[tenant])
        trace.record_open(at, conn_key, four_tuple, tenant_id=tenant)
        conns.append((conn_key, four_tuple, tenant))
    close_at = surge_at
    for burst in range(n_bursts):
        burst_time = surge_at + burst * burst_gap
        for conn_key, four_tuple, tenant in conns:
            for i in range(surge_requests):
                trace.record_request(
                    burst_time + i * 1e-4, conn_key, four_tuple,
                    _service_times(rng, float(params["mean_service_us"]), 1),
                    size=int(params["size"]), tenant_id=tenant)
        close_at = burst_time + surge_requests * 1e-4
    for conn_key, four_tuple, _ in conns:
        trace.record_close(close_at + 1e-3, conn_key, four_tuple)
    return trace


_COMMON_DEFAULTS = {
    "ports": (443,),
    "n_client_ips": 64,
    "mean_service_us": 250.0,
    "size": 512,
    "request_gap_mean": 0.0,
    "requests_per_conn": 1,
}

FAMILIES: Dict[str, WorkloadFamily] = {}


def _register(family: WorkloadFamily) -> WorkloadFamily:
    FAMILIES[family.name] = family
    return family


_register(WorkloadFamily(
    name="diurnal",
    description="sinusoidal day-curve of connection arrivals",
    defaults={**_COMMON_DEFAULTS, "duration": 1.0, "base_rate": 80.0,
              "amplitude": 0.6, "period": 1.0},
    sampler=_sample_diurnal,
    builder=_build_diurnal,
    shrinkers={"duration": 0.1, "base_rate": 5.0, "requests_per_conn": 1},
))

_register(WorkloadFamily(
    name="flash_crowd",
    description="base rate with a sudden spike_factor× window",
    defaults={**_COMMON_DEFAULTS, "duration": 1.0, "base_rate": 40.0,
              "spike_at": 0.4, "spike_duration": 0.2, "spike_factor": 6.0},
    sampler=_sample_flash_crowd,
    builder=_build_flash_crowd,
    shrinkers={"duration": 0.1, "base_rate": 5.0, "spike_factor": 1.0},
))

_register(WorkloadFamily(
    name="heavy_hitter_churn",
    description="multi-tenant traffic with a rotating hot tenant",
    defaults={**_COMMON_DEFAULTS, "duration": 1.0, "rate": 80.0,
              "n_tenants": 4, "hot_share": 0.7, "rotate_every": 0.3,
              "base_port": 443},
    sampler=_sample_heavy_hitter,
    builder=_build_heavy_hitter,
    shrinkers={"duration": 0.1, "rate": 5.0, "n_tenants": 1},
))

_register(WorkloadFamily(
    name="fanout_chain",
    description="microservice fan-out trees (XLB's setting)",
    defaults={**_COMMON_DEFAULTS, "duration": 1.0, "root_rate": 20.0,
              "fanout": 2, "depth": 2, "hop_delay": 500e-6,
              "ports": (443, 8080, 9090)},
    sampler=_sample_fanout,
    builder=_build_fanout,
    shrinkers={"duration": 0.1, "root_rate": 2.0, "fanout": 1, "depth": 0},
))

_register(WorkloadFamily(
    name="longlived_surge",
    description="long-lived connections hit by synchronized surges "
                "(10× Fig. 3 scale)",
    defaults={**_COMMON_DEFAULTS, "n_connections": 4000,
              "connect_window": 0.5, "surge_at": 0.8, "surge_requests": 3,
              "n_bursts": 1, "burst_gap": 0.2},
    sampler=_sample_longlived,
    builder=_build_longlived,
    shrinkers={"n_connections": 8, "surge_requests": 1, "n_bursts": 1},
))


def family_names() -> List[str]:
    return sorted(FAMILIES)


def build_family_trace(name: str, params: Dict[str, object],
                       rng: Stream) -> Trace:
    """Materialize one family's trace from explicit parameters."""
    try:
        family = FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown workload family {name!r}; "
                       f"known: {', '.join(family_names())}") from None
    return family.build(params, rng)
