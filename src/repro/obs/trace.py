"""The tracer: structured events and nestable spans on the sim clock.

A :class:`Tracer` is handed (optionally) to every instrumented component.
Emitting is cheap — an object append — and *disabled* tracing is free at
the instrumentation sites, which all follow the pattern::

    tracer = self.tracer
    if tracer is not None:
        tracer.instant("conn.accept", CAT_WORKER, conn=conn.id, ...)

so an untraced run executes exactly one attribute load and a None check per
site.  The tracer never touches the event queue or any RNG stream: enabling
it cannot perturb simulated time or experiment results.

Events are phase-tagged like the Chrome ``trace_event`` format: ``"B"``
(span begin), ``"E"`` (span end), ``"i"`` (instant).  Spans are nestable per
worker (the per-``tid`` begin/end stack of the Chrome format); analysis-side
reassembly (:mod:`repro.obs.timeline`) matches them by request id instead,
which is robust to interleaving across workers.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, List, Optional

from .context import TraceContext

__all__ = [
    "TraceEvent",
    "Tracer",
    "CAT_KERNEL",
    "CAT_NET",
    "CAT_WORKER",
    "CAT_SCHED",
    "CAT_FAULT",
    "CAT_CHECK",
]

#: Kernel-side mechanisms: wait queues, epoll callbacks, reuseport selection.
CAT_KERNEL = "kernel"
#: Network stack entry points: SYNs, request delivery.
CAT_NET = "net"
#: Userspace worker loop: accepts, request service, closes.
CAT_WORKER = "worker"
#: The Hermes cascading scheduler.
CAT_SCHED = "sched"
#: Fault injection: ``fault.arm`` / ``fault.fire`` / ``fault.clear``.
CAT_FAULT = "fault"
#: Runtime invariant monitors and differential oracles (repro.check).
CAT_CHECK = "check"


class TraceEvent:
    """One structured event.  Immutable by convention, slot-packed."""

    __slots__ = ("seq", "ts", "name", "cat", "phase",
                 "worker", "conn", "request", "fields")

    def __init__(self, seq: int, ts: float, name: str, cat: str, phase: str,
                 worker: Optional[int], conn: Optional[int],
                 request: Optional[int], fields: Optional[Dict[str, Any]]):
        self.seq = seq
        self.ts = ts
        self.name = name
        self.cat = cat
        self.phase = phase
        self.worker = worker
        self.conn = conn
        self.request = request
        self.fields = fields

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ids = ".".join(f"{k}={v}" for k, v in
                       (("w", self.worker), ("c", self.conn),
                        ("r", self.request)) if v is not None)
        return (f"<TraceEvent #{self.seq} {self.phase} {self.name} "
                f"t={self.ts:.6f} {ids}>")


class Tracer:
    """Collects :class:`TraceEvent` objects stamped with ``env.now``.

    Parameters
    ----------
    env:
        The simulation environment providing the clock.  May be ``None`` at
        construction (the CLI builds the tracer before the environment
        exists); call :meth:`bind` before the run starts.
    recorder:
        An optional :class:`~repro.obs.recorder.FlightRecorder`; every
        emitted event is also pushed into its ring buffer.
    keep_events:
        When False the tracer keeps no unbounded event list — flight-
        recorder-only mode, for long or crash-prone runs.
    """

    __slots__ = ("_env", "recorder", "keep_events", "events", "ctx",
                 "_seq", "_rid")

    def __init__(self, env=None, recorder=None, keep_events: bool = True):
        self._env = env
        self.recorder = recorder
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []
        self.ctx = TraceContext()
        self._seq = count()
        self._rid = count(1)

    # -- wiring ----------------------------------------------------------
    def bind(self, env) -> "Tracer":
        """Attach the environment whose clock stamps events."""
        self._env = env
        return self

    @property
    def now(self) -> float:
        return self._env.now if self._env is not None else 0.0

    # -- id allocation ----------------------------------------------------
    def request_id(self, request) -> int:
        """Deterministic per-run id for a request object (assigned once)."""
        rid = getattr(request, "_trace_rid", None)
        if rid is None:
            rid = next(self._rid)
            request._trace_rid = rid
        return rid

    # -- emission ----------------------------------------------------------
    def _emit(self, name: str, cat: str, phase: str,
              worker: Optional[int], conn: Optional[int],
              request: Optional[int],
              fields: Optional[Dict[str, Any]]) -> TraceEvent:
        ctx = self.ctx.current
        if ctx:
            if worker is None:
                worker = ctx.get("worker")
            if conn is None:
                conn = ctx.get("conn")
            if request is None:
                request = ctx.get("request")
        event = TraceEvent(next(self._seq), self.now, name, cat, phase,
                           worker, conn, request, fields or None)
        if self.keep_events:
            self.events.append(event)
        if self.recorder is not None:
            self.recorder.record(event)
        return event

    def instant(self, name: str, cat: str = CAT_WORKER,
                worker: Optional[int] = None, conn: Optional[int] = None,
                request: Optional[int] = None,
                **fields: Any) -> TraceEvent:
        """Emit a point-in-time event."""
        return self._emit(name, cat, "i", worker, conn, request, fields)

    def begin(self, name: str, cat: str = CAT_WORKER,
              worker: Optional[int] = None, conn: Optional[int] = None,
              request: Optional[int] = None,
              **fields: Any) -> TraceEvent:
        """Open a span (matched by ``end`` with the same name/ids)."""
        return self._emit(name, cat, "B", worker, conn, request, fields)

    def end(self, name: str, cat: str = CAT_WORKER,
            worker: Optional[int] = None, conn: Optional[int] = None,
            request: Optional[int] = None,
            **fields: Any) -> TraceEvent:
        """Close the innermost open span with this name."""
        return self._emit(name, cat, "E", worker, conn, request, fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer events={len(self.events)}>"
