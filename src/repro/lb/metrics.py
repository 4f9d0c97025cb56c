"""Per-worker and per-device metric collection.

Gathers everything the paper's evaluation reports: request latency
distributions and throughput (Table 3), per-worker CPU utilization and
connection counts and their standard deviations (Table 2, Fig. 13), epoll
event statistics (Figs. 4 & 5), and failure counters.
"""

from __future__ import annotations

from array import array
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional

from ..analysis.stats import population_sd
from ..sim.engine import Environment
from ..sim.monitor import BusyTracker, Samples, TimeWeighted

__all__ = ["WorkerMetrics", "DeviceMetrics"]


class WorkerMetrics:
    """Metrics of one worker (pinned to one CPU core)."""

    def __init__(self, env: Environment, worker_id: int):
        self.env = env
        self.worker_id = worker_id
        #: CPU busy-time tracker — utilization == core utilization.
        self.cpu = BusyTracker(env)
        #: Concurrent connection count over time.
        self.connections = TimeWeighted(env)
        self.accepted = 0
        self.closed = 0
        self.requests_completed = 0
        self.events_processed = 0
        #: Flows this worker handed to the kernel splice path
        #: (``repro.splice``); 0 in every other mode.
        self.flows_spliced = 0
        #: Per-event userspace processing times (Fig. 5a); recorded only
        #: while the worker's ``epoll.collect_stats`` is on.
        self.event_processing_times = Samples(f"w{worker_id}.event_proc")

    @property
    def cpu_utilization(self) -> float:
        return self.cpu.utilization()

    @property
    def current_connections(self) -> float:
        return self.connections.level


class DeviceMetrics:
    """Aggregated metrics for one LB device (a VM with n worker cores)."""

    def __init__(self, env: Environment):
        self.env = env
        self.start_time = env.now
        self.workers: Dict[int, WorkerMetrics] = {}
        #: End-to-end request latencies (arrival → response complete).
        self.request_latencies = Samples("latency")
        #: The tenant of each ``request_latencies`` sample, index for
        #: index (-1: none), so each latency is stored once.
        self._tenants = array("i")
        self.requests_completed = 0
        self.requests_failed = 0
        #: Requests completed on the kernel splice path (a subset of
        #: ``requests_completed``; ``repro.splice`` only).
        self.requests_spliced = 0
        self.connections_accepted = 0
        self.connections_refused = 0

    def register_worker(self, worker_id: int) -> WorkerMetrics:
        metrics = WorkerMetrics(self.env, worker_id)
        self.workers[worker_id] = metrics
        return metrics

    # -- recording -----------------------------------------------------------
    def record_request(self, latency: float, worker_id: int,
                       tenant_id: Optional[int] = None) -> None:
        self.request_latencies.add(latency)
        # Negative tenant ids are infrastructure (health probes).
        self._tenants.append(
            tenant_id if tenant_id is not None and tenant_id >= 0 else -1)
        self.requests_completed += 1
        worker = self.workers.get(worker_id)
        if worker is not None:
            worker.requests_completed += 1

    @property
    def tenant_latencies(self) -> Mapping[int, Samples]:
        """Per-tenant latency breakdown — the performance-isolation view
        (§1: "preventing worker overload is crucial to preserving
        inter-tenant performance isolation").

        Built on each read from the latency and tenant columns: tenants in
        order of first completion, each tenant's latencies in completion
        order.
        """
        view: Dict[int, Samples] = {}
        for tenant, latency in zip(self._tenants,
                                   self.request_latencies.values):
            if tenant >= 0:
                samples = view.get(tenant)
                if samples is None:
                    samples = view[tenant] = Samples(
                        f"tenant{tenant}.latency")
                samples.add(latency)
        return MappingProxyType(view)

    def record_failure(self) -> None:
        self.requests_failed += 1

    # -- aggregates ----------------------------------------------------------
    @property
    def elapsed(self) -> float:
        return self.env.now - self.start_time

    def throughput(self) -> float:
        """Completed requests per second over the device lifetime."""
        elapsed = self.elapsed
        return self.requests_completed / elapsed if elapsed > 0 else 0.0

    def cpu_utilizations(self) -> List[float]:
        return [w.cpu_utilization for w in self.workers.values()]

    def connection_counts(self) -> List[float]:
        return [w.current_connections for w in self.workers.values()]

    def cpu_sd(self) -> float:
        """SD of per-worker CPU utilization (Fig. 13 left)."""
        return population_sd(self.cpu_utilizations())

    def conn_sd(self) -> float:
        """SD of per-worker connection counts (Fig. 13 right)."""
        return population_sd(self.connection_counts())

    def cpu_spread(self) -> float:
        """max - min core utilization (Table 2's imbalance measure)."""
        utils = self.cpu_utilizations()
        return max(utils) - min(utils) if utils else 0.0

    def avg_latency(self) -> float:
        return self.request_latencies.mean

    def p99_latency(self) -> float:
        return self.request_latencies.p99

    def summary(self) -> dict:
        """One row of Table 3 for this device."""
        return {
            "avg_ms": self.avg_latency() * 1e3,
            "p99_ms": self.p99_latency() * 1e3,
            "throughput_rps": self.throughput(),
            "completed": self.requests_completed,
            "failed": self.requests_failed,
            "cpu_sd": self.cpu_sd(),
            "conn_sd": self.conn_sd(),
        }
