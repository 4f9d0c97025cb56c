"""Per-request span reassembly and critical-path decomposition.

Rebuilds, from raw trace events, what Fig. 5 of the paper measures with
bespoke counters: for each request, where its end-to-end latency went —

- **kernel wait**: from request arrival (data readable in the kernel) until
  the owning worker's ``epoll_wait`` returned the batch that led to its
  processing.  This is the component the notification mechanism controls.
- **queue wait**: from that dispatch until the request's service actually
  ran, plus any gaps between its service segments — time spent behind other
  events in the same worker's batch (accepts, other connections).
- **service**: the request's own userspace processing time.

The three components are computed so they sum *exactly* to the request's
end-to-end latency (queue wait is the telescoped remainder), which is the
property the paper's decomposition relies on.

Reassembly is keyed by request id, so interleaved spans from many workers
cannot be mis-paired.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .._sum import left_sum
from .trace import TraceEvent

__all__ = ["RequestTimeline", "build_timelines", "summarize_timelines"]

#: Event names the reassembler consumes (kept in one place so the
#: instrumentation sites and the analysis cannot drift apart).
EV_ARRIVAL = "request.arrival"
EV_SERVICE = "request.service"
EV_COMPLETE = "request.complete"
EV_DISPATCH = "epoll.dispatch"


@dataclass
class RequestTimeline:
    """The reassembled lifecycle of one request."""

    request: int
    conn: Optional[int] = None
    worker: Optional[int] = None
    arrival: Optional[float] = None
    completed: Optional[float] = None
    #: When the serving worker's epoll_wait returned the relevant batch.
    dispatch: Optional[float] = None
    #: (begin, end) service segments, in time order.
    segments: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return (self.arrival is not None and self.completed is not None
                and bool(self.segments))

    @property
    def latency(self) -> Optional[float]:
        if self.arrival is None or self.completed is None:
            return None
        return self.completed - self.arrival

    @property
    def service_time(self) -> float:
        return left_sum(end - begin for begin, end in self.segments)

    @property
    def kernel_wait(self) -> Optional[float]:
        """Arrival -> batch dispatch on the serving worker."""
        if self.arrival is None or not self.segments:
            return None
        first_start = self.segments[0][0]
        dispatch = self.dispatch if self.dispatch is not None else first_start
        # The relevant batch cannot precede the arrival that made the fd
        # readable, nor follow the service it triggered.
        dispatch = min(max(dispatch, self.arrival), first_start)
        return dispatch - self.arrival

    @property
    def queue_wait(self) -> Optional[float]:
        """Everything that is neither kernel wait nor service.

        Computed as the remainder so that
        ``kernel_wait + queue_wait + service_time == latency`` exactly.
        """
        latency = self.latency
        kernel = self.kernel_wait
        if latency is None or kernel is None:
            return None
        return latency - kernel - self.service_time

    def breakdown(self) -> Dict[str, float]:
        """The critical-path components (only valid when ``complete``)."""
        return {
            "latency": self.latency,
            "kernel_wait": self.kernel_wait,
            "queue_wait": self.queue_wait,
            "service": self.service_time,
        }


def build_timelines(events: Iterable[TraceEvent],
                    include_incomplete: bool = False,
                    ) -> List[RequestTimeline]:
    """Reassemble per-request timelines from a raw event stream.

    Events may come from a tracer's full list or a flight-recorder
    snapshot; order within the stream is the emission (time) order.
    """
    timelines: Dict[int, RequestTimeline] = {}
    open_service: Dict[int, float] = {}
    #: Per-worker sorted dispatch timestamps (epoll_wait batch returns).
    dispatches: Dict[int, List[float]] = {}

    def timeline(rid: int) -> RequestTimeline:
        entry = timelines.get(rid)
        if entry is None:
            entry = timelines[rid] = RequestTimeline(request=rid)
        return entry

    for event in events:
        name = event.name
        if name == EV_DISPATCH and event.worker is not None:
            dispatches.setdefault(event.worker, []).append(event.ts)
            continue
        rid = event.request
        if rid is None:
            continue
        if name == EV_ARRIVAL:
            entry = timeline(rid)
            entry.arrival = event.ts
            if event.conn is not None:
                entry.conn = event.conn
        elif name == EV_SERVICE:
            entry = timeline(rid)
            if event.worker is not None:
                entry.worker = event.worker
            if event.conn is not None:
                entry.conn = event.conn
            if event.phase == "B":
                open_service[rid] = event.ts
            elif event.phase == "E":
                begin = open_service.pop(rid, None)
                if begin is not None:
                    entry.segments.append((begin, event.ts))
        elif name == EV_COMPLETE:
            timeline(rid).completed = event.ts

    # Resolve each request's dispatch: the latest epoll_wait return on its
    # serving worker at or before its first service segment.
    for entry in timelines.values():
        if entry.worker is None or not entry.segments:
            continue
        stamps = dispatches.get(entry.worker)
        if not stamps:
            continue
        index = bisect_right(stamps, entry.segments[0][0])
        if index:
            entry.dispatch = stamps[index - 1]

    out = [entry for entry in timelines.values()
           if include_incomplete or entry.complete]
    out.sort(key=lambda entry: (entry.arrival if entry.arrival is not None
                                else float("inf"), entry.request))
    return out


def summarize_timelines(timelines: Iterable[RequestTimeline]) -> Dict[str, float]:
    """Mean critical-path components over completed requests (Fig. 5 row)."""
    complete = [t for t in timelines if t.complete]
    if not complete:
        return {"count": 0, "avg_latency": 0.0, "avg_kernel_wait": 0.0,
                "avg_queue_wait": 0.0, "avg_service": 0.0}
    n = len(complete)
    return {
        "count": n,
        "avg_latency": left_sum(t.latency for t in complete) / n,
        "avg_kernel_wait": left_sum(t.kernel_wait for t in complete) / n,
        "avg_queue_wait": left_sum(t.queue_wait for t in complete) / n,
        "avg_service": left_sum(t.service_time for t in complete) / n,
    }
