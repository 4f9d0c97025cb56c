"""Request-shape distributions.

The paper characterizes traffic by request size and *userspace processing
time* quantiles (Table 1).  We sample processing times from a
:class:`QuantileSampler` — log-linear inverse-CDF interpolation through the
published quantile knots — so a fitted workload reproduces P50/P90/P99
nearly exactly, including the WebSocket-heavy tails of Region3.

A :class:`RequestFactory` turns sampled totals into concrete
:class:`~repro.kernel.tcp.Request` objects: the total service time is split
across a sampled number of events (header read, body read, response write,
…), tagged with a handler class for workload realism.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from math import exp
from typing import List, Optional, Sequence, Tuple

from .._sum import left_sum
from ..kernel.tcp import Request
from ..sim.rng import Stream

__all__ = ["QuantileSampler", "RequestFactory", "FixedFactory"]


class QuantileSampler:
    """Inverse-CDF sampler through quantile knots, log-linear between them.

    ``knots`` is a sequence of (quantile, value) pairs with quantiles in
    (0, 1), strictly increasing in both coordinates.  Below the first knot
    the distribution extends log-linearly down to ``floor`` at quantile 0;
    above the last knot it extends to ``cap`` at quantile 1 (defaults:
    first value / 4 and last value × 1.5).
    """

    def __init__(self, knots: Sequence[Tuple[float, float]],
                 floor: Optional[float] = None,
                 cap: Optional[float] = None):
        if not knots:
            raise ValueError("need at least one quantile knot")
        qs = [q for q, _ in knots]
        vs = [v for _, v in knots]
        if any(not 0 < q < 1 for q in qs):
            raise ValueError("knot quantiles must lie in (0, 1)")
        if sorted(qs) != qs or len(set(qs)) != len(qs):
            raise ValueError("knot quantiles must be strictly increasing")
        if any(v <= 0 for v in vs):
            raise ValueError("knot values must be positive")
        if sorted(vs) != vs:
            raise ValueError("knot values must be non-decreasing")
        lo = floor if floor is not None else vs[0] / 4
        hi = cap if cap is not None else vs[-1] * 1.5
        if lo <= 0:
            raise ValueError("floor must be positive")
        self._qs: List[float] = [0.0] + qs + [1.0]
        self._log_vs: List[float] = (
            [math.log(lo)] + [math.log(v) for v in vs] + [math.log(hi)])
        #: (q0, span, log_v0, dlog_v) per knot interval; every span > 0.
        qs, lvs = self._qs, self._log_vs
        self._segments: List[Tuple[float, float, float, float]] = [
            (qs[i], qs[i + 1] - qs[i], lvs[i], lvs[i + 1] - lvs[i])
            for i in range(len(qs) - 1)]

    def quantile(self, q: float) -> float:
        """The value at cumulative probability ``q``."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        # A q exactly on a knot takes the lower segment.
        q0, span, lv0, dlv = self._segments[bisect_left(self._qs, q, 1) - 1]
        return exp(lv0 + (q - q0) / span * dlv)

    def sample(self, rng: Stream) -> float:
        return self.quantile(rng.random())

    def mean(self) -> float:
        """Exact distribution mean.

        Between knots the quantile function is ``exp`` of a linear ramp, so
        each segment contributes ``(v1 - v0) / ln(v1 / v0)`` weighted by its
        quantile span (limit: ``v`` when ``v0 == v1``).
        """
        total = 0.0
        qs, lvs = self._qs, self._log_vs
        for i in range(len(qs) - 1):
            span = qs[i + 1] - qs[i]
            if span <= 0:
                continue
            v0, v1 = math.exp(lvs[i]), math.exp(lvs[i + 1])
            if abs(lvs[i + 1] - lvs[i]) < 1e-12:
                segment_mean = v0
            else:
                segment_mean = (v1 - v0) / (lvs[i + 1] - lvs[i])
            total += segment_mean * span
        return total


@dataclass
class RequestFactory:
    """Builds requests whose totals follow a quantile-fitted distribution."""

    service_sampler: QuantileSampler
    size_sampler: Optional[QuantileSampler] = None
    #: Events per request are uniform in [min_events, max_events].
    min_events: int = 1
    max_events: int = 3
    handler: str = "http"

    def __post_init__(self):
        if not 1 <= self.min_events <= self.max_events:
            raise ValueError("need 1 <= min_events <= max_events")

    def build(self, rng: Stream, tenant_id: int = 0) -> Request:
        """Draw one request.

        The total service time is split across the events with random
        proportions.  Draws, in order: the total, the event count (as
        ``randint`` draws it), one weight per event when there are two or
        more, and the size.
        """
        random = rng.random
        total = self.service_sampler.quantile(random())
        low = self.min_events
        # randint(low, high) is low + _randbelow(high - low + 1).
        n_events = low + rng._randbelow(self.max_events - low + 1)
        if n_events == 1:
            event_times: Tuple[float, ...] = (total,)
        elif n_events == 2:
            # Two floats: one rounded add equals a (compensated) sum().
            w0 = random() + 0.25
            w1 = random() + 0.25
            scale = total / (w0 + w1)
            event_times = (w0 * scale, w1 * scale)
        else:
            # A left fold: 3.12's compensated sum() rounds otherwise.
            weights = [random() + 0.25 for _ in range(n_events)]
            scale = total / left_sum(weights)
            event_times = tuple([w * scale for w in weights])
        sizes = self.size_sampler
        size = int(sizes.quantile(random())) if sizes is not None else 512
        return Request(tenant_id, size, event_times, self.handler)


@dataclass
class FixedFactory:
    """Deterministic requests — used by walkthrough and unit tests."""

    event_times: Tuple[float, ...] = (0.001,)
    size_bytes: int = 512
    handler: str = "http"

    def build(self, rng: Stream, tenant_id: int = 0) -> Request:
        return Request(tenant_id=tenant_id, size_bytes=self.size_bytes,
                       event_times=self.event_times, handler=self.handler)
