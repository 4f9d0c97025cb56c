"""Traffic trace record & replay.

§6.2: "we collected and replayed traffic from them.  Additionally, we
replayed traffic at 2 to 3 times the original rate to emulate medium and
heavy workloads."  A :class:`Trace` records connection-open and request
events with their timestamps; :class:`TraceReplayer` re-issues them against
a target, optionally compressing time by a rate multiplier (2× rate ==
timestamps divided by 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..kernel.hash import FourTuple
from ..kernel.tcp import Connection, ConnState, Request
from ..sim.engine import Environment

__all__ = ["Trace", "TraceEvent", "TraceReplayer"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    ``kind`` is "open", "request", or "close".  ``conn_key`` groups events
    of the same original connection.  For requests, ``event_times`` carries
    the per-event processing times and ``size`` the request size.  ``None``
    means "never recorded" (open/close events, or hand-built requests);
    a recorded zero is a real zero and replays as such.
    """

    time: float
    kind: str
    conn_key: int
    four_tuple: FourTuple
    tenant_id: int = 0
    event_times: Optional[Tuple[float, ...]] = None
    size: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "conn_key": self.conn_key,
            "four_tuple": list(self.four_tuple),
            "tenant_id": self.tenant_id,
            "event_times": (None if self.event_times is None
                            else list(self.event_times)),
            "size": self.size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        event_times = data.get("event_times")
        return cls(
            time=data["time"],
            kind=data["kind"],
            conn_key=data["conn_key"],
            four_tuple=FourTuple(*data["four_tuple"]),
            tenant_id=data.get("tenant_id", 0),
            event_times=(None if event_times is None
                         else tuple(event_times)),
            size=data.get("size"),
        )


@dataclass
class Trace:
    """An ordered list of trace events."""

    events: List[TraceEvent] = field(default_factory=list)

    def record_open(self, time: float, conn_key: int,
                    four_tuple: FourTuple, tenant_id: int = 0) -> None:
        self.events.append(TraceEvent(time, "open", conn_key, four_tuple,
                                      tenant_id))

    def record_request(self, time: float, conn_key: int,
                       four_tuple: FourTuple,
                       event_times: Sequence[float],
                       size: int = 512, tenant_id: int = 0) -> None:
        self.events.append(TraceEvent(
            time, "request", conn_key, four_tuple, tenant_id,
            tuple(event_times), size))

    def record_close(self, time: float, conn_key: int,
                     four_tuple: FourTuple, tenant_id: int = 0) -> None:
        self.events.append(TraceEvent(time, "close", conn_key, four_tuple,
                                      tenant_id))

    def sorted_events(self) -> List[TraceEvent]:
        return sorted(self.events, key=lambda e: e.time)

    def to_dict(self) -> dict:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        return cls(events=[TraceEvent.from_dict(e)
                           for e in data.get("events", ())])

    @property
    def duration(self) -> float:
        return max((e.time for e in self.events), default=0.0)

    def __len__(self) -> int:
        return len(self.events)


class TraceReplayer:
    """Replays a trace against a target at ``rate`` × original speed."""

    def __init__(self, env: Environment, target, trace: Trace,
                 rate: float = 1.0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.env = env
        self.target = target
        self.trace = trace
        self.rate = rate
        self.replayed = 0
        self.skipped = 0
        self._conns: dict = {}
        self._proc: Optional[object] = None

    def start(self) -> None:
        self._proc = self.env.process(self._run(), name="trace-replay")

    @property
    def finished(self) -> bool:
        return self._proc is not None and not self._proc.is_alive

    def _run(self):
        start = self.env.now
        for event in self.trace.sorted_events():
            due = start + event.time / self.rate
            if due > self.env.now:
                yield self.env.timeout(due - self.env.now)
            self._apply(event)
        # End-of-trace drain: a truncated trace may leave connections with
        # no recorded close — close them so conservation invariants balance.
        # Drained closes correspond to no trace event, so they count toward
        # neither ``replayed`` nor ``skipped``.
        for conn in self._conns.values():
            conn.client_close()
        self._conns.clear()
        assert self.replayed + self.skipped == len(self.trace), (
            f"trace accounting leak: {self.replayed} replayed + "
            f"{self.skipped} skipped != {len(self.trace)} events")

    def _apply(self, event: TraceEvent) -> None:
        if event.kind == "open":
            conn = Connection(event.four_tuple, tenant_id=event.tenant_id,
                              created_time=self.env.now)
            if self.target.connect(conn):
                self._conns[event.conn_key] = conn
                self.replayed += 1
            else:
                self.skipped += 1
        elif event.kind == "request":
            conn = self._conns.get(event.conn_key)
            if conn is None or conn.state in (ConnState.RESET,
                                              ConnState.REFUSED,
                                              ConnState.CLOSED):
                self.skipped += 1
                return
            request = Request(
                tenant_id=event.tenant_id,
                size_bytes=event.size if event.size is not None else 512,
                event_times=(event.event_times
                             if event.event_times is not None else (0.001,)))
            self.target.deliver(conn, request)
            self.replayed += 1
        elif event.kind == "close":
            conn = self._conns.pop(event.conn_key, None)
            if conn is not None:
                conn.client_close()
                self.replayed += 1
            else:
                # The matching open was refused (or already closed): the
                # close still consumed a trace event — account for it.
                self.skipped += 1
        else:
            raise ValueError(f"unknown trace event kind {event.kind!r}")
