"""Observability: structured tracing, span timelines, flight recording.

The paper's central claims are about *where time goes* between a kernel
event and userspace processing (Figs. 3-5, 13).  This package provides the
measurement substrate to answer that per request instead of in aggregate:

- :mod:`repro.obs.trace` — a :class:`Tracer` with zero-cost-when-disabled
  structured events and nestable spans, stamped with the simulation clock.
- :mod:`repro.obs.context` — trace-context propagation so a connection's id
  flows through synchronous kernel call chains (reuseport selection,
  wait-queue wakeup, epoll callback) without threading parameters.
- :mod:`repro.obs.recorder` — a bounded ring-buffer flight recorder that
  always keeps the last N events for post-mortem analysis.
- :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON and JSONL.
- :mod:`repro.obs.timeline` — per-request span reassembly and the
  kernel-wait / queue-wait / service critical-path decomposition (Fig. 5
  from traces instead of bespoke counters).

Instrumentation is opt-in: every hook is an optional ``tracer=`` parameter
defaulting to ``None``, and a ``None`` tracer leaves the simulated system
bit-identical to an uninstrumented run (no RNG draws, no scheduled events).
"""

from .._lazy import lazy_exports

__all__ = [
    "CAT_FAULT",
    "CAT_KERNEL",
    "CAT_NET",
    "CAT_SCHED",
    "CAT_WORKER",
    "FlightRecorder",
    "RequestTimeline",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "build_timelines",
    "event_to_dict",
    "summarize_timelines",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".context": ("TraceContext",),
    ".recorder": ("FlightRecorder",),
    ".export": ("event_to_dict", "to_chrome_trace", "write_chrome_trace",
                "write_jsonl"),
    ".timeline": ("RequestTimeline", "build_timelines", "summarize_timelines"),
    ".trace": ("CAT_FAULT", "CAT_KERNEL", "CAT_NET", "CAT_SCHED",
               "CAT_WORKER", "TraceEvent", "Tracer"),
})
