"""Per-layer attribution for the traced pass.

Two instruments run together, installed from outside the program so no
``repro`` source knows about them:

- ``cProfile`` over the simulated run, its self time bucketed by the
  ``repro.<package>`` a function lives in (``<layer>.self_s``);
- span wrappers around public entry points (:data:`PROBES`).  Each call
  records a span (name, start, end, parent probe).  Spans are aggregated
  per name in memory; self time is a span's duration minus the time its
  wrapped children took.  A bounded sample of raw spans is kept for the
  results file.

A probe whose entry point no longer exists is skipped with a warning, and
the metrics it feeds read ``None``.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import pstats
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers whose profiled self time is a metric; every other ``repro``
#: package is still bucketed, and reported in the results file only.
LAYERS = ("sim", "kernel", "core", "lb", "workloads", "splice", "fleet")

#: Raw spans kept for the results file.
SPAN_SAMPLE = 256


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``module.attr`` recorded as span ``name``."""

    name: str
    module: str
    attr: str
    #: What the wrapper reads from each result: ``"none"`` counts results
    #: that are ``None`` (a miss), ``"pass_ratio"`` sums
    #: ``result.pass_ratio``, ``"self"`` keeps the receiver.
    observe: Optional[str] = None


PROBES: Tuple[Probe, ...] = (
    Probe("kernel.connect", "repro.kernel.tcp", "NetStack.connect"),
    Probe("kernel.deliver", "repro.kernel.tcp", "NetStack.deliver"),
    Probe("kernel.wake", "repro.kernel.waitqueue", "WaitQueue.wake"),
    Probe("kernel.accept", "repro.kernel.socket", "ListeningSocket.accept",
          observe="none"),
    Probe("core.schedule", "repro.core.scheduler",
          "CascadingScheduler.schedule_and_sync", observe="pass_ratio"),
    Probe("core.dispatch", "repro.core.dispatch", "HermesDispatchProgram.run",
          observe="none"),
    Probe("lb.setup", "repro.lb.server", "LBServer.__init__"),
    Probe("lb.setup", "repro.lb.server", "LBServer.start", observe="self"),
    Probe("lb.record_request", "repro.lb.metrics",
          "DeviceMetrics.record_request"),
    Probe("workloads.open_connection", "repro.workloads.generator",
          "TrafficGenerator.open_connection"),
    Probe("workloads.build", "repro.workloads.distributions",
          "RequestFactory.build"),
    Probe("workloads.build", "repro.workloads.distributions",
          "FixedFactory.build"),
    Probe("splice.dispatch", "repro.splice.dispatch",
          "CharonDispatchProgram.run"),
    Probe("splice.forward", "repro.splice.engine", "SpliceEngine.forward"),
    Probe("fleet.shard", "repro.fleet.sharded", "run_shard"),
    Probe("fleet.merge", "repro.fleet.sharded", "merge_shards"),
    Probe("fleet.ingress", "repro.fleet.sharded", "ShardIngress.owner"),
)

#: Every per-layer metric and its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_s": "s",
    "kernel.self_s": "s",
    "kernel.connect.calls": "count",
    "kernel.connect.us": "us",
    "kernel.deliver.calls": "count",
    "kernel.deliver.us": "us",
    "kernel.wake.calls": "count",
    "kernel.wake.us": "us",
    "kernel.accept.calls": "count",
    "kernel.accept.miss_ratio": "ratio",
    "core.self_s": "s",
    "core.schedule.calls": "count",
    "core.schedule.us": "us",
    "core.schedule.pass_ratio": "ratio",
    "core.dispatch.calls": "count",
    "core.dispatch.us": "us",
    "core.dispatch.fallback_ratio": "ratio",
    "lb.self_s": "s",
    "lb.setup_s": "s",
    "lb.record_request.calls": "count",
    "lb.record_request.us": "us",
    "lb.events_processed": "count",
    "workloads.self_s": "s",
    "workloads.open_connection.calls": "count",
    "workloads.open_connection.us": "us",
    "workloads.build.calls": "count",
    "workloads.build.us": "us",
    "splice.self_s": "s",
    "splice.dispatch.calls": "count",
    "splice.dispatch.us": "us",
    "splice.forward.calls": "count",
    "splice.forward.us": "us",
    "splice.spliced_share": "ratio",
    "fleet.self_s": "s",
    "fleet.shard.calls": "count",
    "fleet.shard.s": "s",
    "fleet.merge.s": "s",
    "fleet.ingress.calls": "count",
    "fleet.ingress.us": "us",
    "fleet.foreign_ratio": "ratio",
    "stdlib.self_s": "s",
    "trace.overhead": "ratio",
}


class SpanStats:
    """Aggregate of every span recorded under one probe name."""

    __slots__ = ("calls", "self_time", "misses", "pass_sum", "receivers")

    def __init__(self) -> None:
        self.calls = 0
        self.self_time = 0.0
        self.misses = 0
        self.pass_sum = 0.0
        self.receivers: List[Any] = []


class Tracer:
    """Installs the probes and the profiler for one traced pass."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        #: Probe names whose entry point could not be found.
        self.missing: List[str] = []
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        # One frame per open span: [probe name, time taken by its children].
        self._stack: List[list] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self._profile = cProfile.Profile()

    # -- probes --------------------------------------------------------------
    def install(self) -> None:
        for probe in PROBES:
            try:
                owner = importlib.import_module(probe.module)
                *path, leaf = probe.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError) as exc:
                warnings.warn(f"probe {probe.name}: entry point "
                              f"{probe.module}.{probe.attr} not found ({exc})")
                self.missing.append(probe.name)
                continue
            stats = self.stats.setdefault(probe.name, SpanStats())
            setattr(owner, leaf, self._wrap(probe, original, stats))
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def _wrap(self, probe: Probe, fn: Callable, stats: SpanStats) -> Callable:
        stack, spans, name = self._stack, self.spans, probe.name
        observe = probe.observe
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stats.calls += 1
                stats.self_time += took - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += took
                if len(spans) < SPAN_SAMPLE:
                    spans.append((name, start, end,
                                  parent[0] if parent else None))
            if observe == "none":
                stats.misses += result is None
            elif observe == "pass_ratio":
                stats.pass_sum += result.pass_ratio
            elif observe == "self":
                stats.receivers.append(args[0])
            return result

        return wrapper

    # -- profiler ------------------------------------------------------------
    def start(self) -> None:
        self._profile.enable()

    def stop(self) -> None:
        self._profile.disable()

    def self_time_by_package(self) -> Dict[str, float]:
        """Profiled self seconds per ``repro`` package (plus ``stdlib``,
        ``bench`` and ``repro`` for top-level modules)."""
        buckets: Dict[str, float] = {}
        for (filename, _line, _func), row in (
                pstats.Stats(self._profile).stats.items()):
            bucket = package_of(filename)
            buckets[bucket] = buckets.get(bucket, 0.0) + row[2]
        return buckets

    # -- metrics ----------------------------------------------------------
    def metrics(self, steps: int, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Every per-layer metric this pass can give by itself.

        ``sim.events_per_s`` and ``trace.overhead`` need the untraced
        passes, so the caller fills them in.
        """
        buckets = self.self_time_by_package()
        out: Dict[str, Any] = {"sim.events": steps}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = buckets.get(layer, 0.0)
        out["stdlib.self_s"] = buckets.get("stdlib", 0.0)
        for name in ("kernel.connect", "kernel.deliver", "kernel.wake",
                     "core.schedule", "core.dispatch", "lb.record_request",
                     "workloads.open_connection", "workloads.build",
                     "splice.dispatch", "splice.forward", "fleet.ingress"):
            out[f"{name}.calls"] = self._read(name, lambda s: s.calls)
            out[f"{name}.us"] = self._read(
                name, lambda s: _per_call(s.self_time, s.calls) * 1e6)
        out["kernel.accept.calls"] = self._read(
            "kernel.accept", lambda s: s.calls)
        out["kernel.accept.miss_ratio"] = self._read(
            "kernel.accept", lambda s: _per_call(s.misses, s.calls))
        out["core.schedule.pass_ratio"] = self._read(
            "core.schedule", lambda s: _per_call(s.pass_sum, s.calls))
        out["core.dispatch.fallback_ratio"] = self._read(
            "core.dispatch", lambda s: _per_call(s.misses, s.calls))
        out["lb.setup_s"] = self._read("lb.setup", lambda s: s.self_time)
        out["lb.events_processed"] = self._read(
            "lb.setup", lambda s: sum(
                w.events_processed for server in s.receivers
                for w in server.metrics.workers.values()))
        out["splice.spliced_share"] = self._read(
            "lb.setup", lambda s: _per_call(
                sum(server.metrics.requests_spliced for server in s.receivers),
                sum(server.metrics.requests_completed
                    for server in s.receivers)))
        out["fleet.shard.calls"] = self._read("fleet.shard", lambda s: s.calls)
        out["fleet.shard.s"] = self._read(
            "fleet.shard", lambda s: _per_call(s.self_time, s.calls))
        out["fleet.merge.s"] = self._read(
            "fleet.merge", lambda s: _per_call(s.self_time, s.calls))
        foreign = doc.get("foreign", 0)
        out["fleet.foreign_ratio"] = _per_call(
            foreign, foreign + doc.get("opened", 0))
        return out

    def _read(self, name: str, fn: Callable[[SpanStats], Any]) -> Any:
        stats = self.stats.get(name)
        return None if stats is None else fn(stats)


def _per_call(total: float, calls: int) -> float:
    return total / calls if calls else 0.0


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def package_of(filename: str) -> str:
    """Bucket a profiled function's file: ``repro/<pkg>/...`` gives
    ``<pkg>`` (``repro`` for top-level modules), the benchmark's own files
    give ``bench``, anything else (the standard library, builtins) gives
    ``stdlib``."""
    import repro

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
    path = os.path.abspath(filename)
    if path.startswith(repro_dir + os.sep):
        rest = os.path.relpath(path, repro_dir).split(os.sep)
        return rest[0] if len(rest) > 1 else "repro"
    if os.path.dirname(path) == _BENCH_DIR:
        return "bench"
    return "stdlib"
