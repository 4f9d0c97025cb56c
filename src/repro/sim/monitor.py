"""Measurement instruments for simulation runs.

Provides the primitives the experiment harnesses use to collect the paper's
metrics: raw sample accumulators (latency distributions), time-weighted
gauges (connection counts, CPU utilization), and periodic samplers that poll
a callable on a fixed interval (Fig. 13's per-minute SD sampling).
"""

from __future__ import annotations

import heapq
import math
from array import array
from itertools import islice
from typing import Callable, Iterable, List, Optional, Tuple

from .._sum import left_sum
from .engine import Environment

__all__ = ["Samples", "TimeWeighted", "PeriodicSampler", "BusyTracker"]


class Samples:
    """An accumulator of raw numeric samples with percentile queries.

    ``values`` is an ``array('d')``: 8 bytes per sample, with no float
    object behind each one.  A percentile selects its one or two order
    statistics instead of sorting; it equals the sort-based value bit for
    bit for any samples that are not NaN.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.values = array("d")

    def add(self, value: float) -> None:
        self.values.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self.values.extend(values if isinstance(values, array)
                           else map(float, values))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return left_sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def total(self) -> float:
        return left_sum(self.values)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        n = len(self.values)
        if not n:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        rank = (p / 100) * (n - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        lo, hi = self._order_stats(low, high)
        if low == high:
            return lo
        frac = rank - low
        # Clamp to the bracketing samples: the weighted sum can underflow
        # below lo when both neighbours are subnormal.
        value = lo * (1 - frac) + hi * frac
        return min(max(value, lo), hi)

    def _order_stats(self, low: int, high: int) -> Tuple[float, float]:
        """``sorted(values)[low]`` and ``[high]`` (``high - low <= 1``),
        selected from whichever end of the order is nearer."""
        values = self.values
        n = len(values)
        if high < n - low:
            head = heapq.nsmallest(high + 1, values)
            pair = (head[low], head[high])
        else:
            tail = heapq.nlargest(n - low, values)  # tail[i] is rank n-1-i
            pair = (tail[n - 1 - low], tail[n - 1 - high])
        # -0.0 and 0.0 compare equal, and the heaps break that tie
        # differently from the stable sort: a zero takes the sign of the
        # zero the sort would place at its rank.
        return (self._zero_at(low) if pair[0] == 0.0 else pair[0],
                self._zero_at(high) if pair[1] == 0.0 else pair[1])

    def _zero_at(self, rank: int) -> float:
        """The zero at ``rank`` in stable sorted order (it must be one)."""
        negatives = sum(1 for v in self.values if v < 0.0)
        zeros = (v for v in self.values if v == 0.0)
        return next(islice(zeros, rank - negatives, None))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p90(self) -> float:
        return self.percentile(90)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else 0.0

    def cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs for plotting a CDF."""
        if not self.values:
            return []
        data = sorted(self.values)
        n = len(data)
        step = max(1, n // points)
        out = [(data[i], (i + 1) / n) for i in range(0, n, step)]
        if out[-1][0] != data[-1]:
            out.append((data[-1], 1.0))
        return out


class TimeWeighted:
    """A gauge whose average is weighted by how long each value was held.

    Used for connection counts and queue depths: ``set()`` records a new
    level at the current simulation time, and :meth:`average` integrates.
    """

    def __init__(self, env: Environment, initial: float = 0.0):
        self.env = env
        self._level = float(initial)
        self._last_change = env.now
        self._area = 0.0
        self._start = env.now
        self.peak = float(initial)

    @property
    def level(self) -> float:
        return self._level

    def set(self, value: float) -> None:
        now = self.env.now
        self._area += self._level * (now - self._last_change)
        self._level = float(value)
        self._last_change = now
        if value > self.peak:
            self.peak = float(value)

    def increment(self, delta: float = 1.0) -> None:
        self.set(self._level + delta)

    def decrement(self, delta: float = 1.0) -> None:
        self.set(self._level - delta)

    def average(self, until: Optional[float] = None) -> float:
        """Time-weighted mean level over [start, until]."""
        end = self.env.now if until is None else until
        elapsed = end - self._start
        if elapsed <= 0:
            return self._level
        # Clamp the open interval: an `until` before the last set() must
        # not subtract area that was integrated at the old level.
        area = self._area + self._level * max(0.0, end - self._last_change)
        return area / elapsed


class BusyTracker:
    """Tracks busy time of a worker/CPU for utilization computation.

    A worker calls :meth:`begin` when it starts consuming CPU and
    :meth:`end` when it stops; :meth:`utilization` reports the busy
    fraction over an arbitrary window.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._busy_since: Optional[float] = None
        self._busy_total = 0.0
        self._start = env.now
        # (time, cumulative busy) checkpoints for windowed queries.
        self._checkpoints: List[Tuple[float, float]] = [(env.now, 0.0)]

    @property
    def busy(self) -> bool:
        return self._busy_since is not None

    # begin/end bracket every direct CPU timer, so they read the engine's
    # clock slot instead of the ``now`` property.
    def begin(self) -> None:
        if self._busy_since is None:
            self._busy_since = self.env._now

    def end(self) -> None:
        if self._busy_since is not None:
            self._busy_total += self.env._now - self._busy_since
            self._busy_since = None

    def busy_time(self) -> float:
        total = self._busy_total
        if self._busy_since is not None:
            total += self.env.now - self._busy_since
        return total

    def checkpoint(self) -> None:
        """Record a (now, cumulative busy) point for later window queries."""
        self._checkpoints.append((self.env.now, self.busy_time()))

    def utilization(self, since: Optional[float] = None) -> float:
        """Busy fraction from ``since`` (default: tracker creation) to now."""
        start = self._start if since is None else since
        elapsed = self.env.now - start
        if elapsed <= 0:
            return 0.0
        if since is None:
            return min(1.0, self.busy_time() / elapsed)
        # Find cumulative busy at `since` from checkpoints (linear interp).
        busy_at_since = self._interpolate(since)
        return min(1.0, (self.busy_time() - busy_at_since) / elapsed)

    def _interpolate(self, when: float) -> float:
        points = self._checkpoints
        if not points or when <= points[0][0]:
            return 0.0
        for (t0, b0), (t1, b1) in zip(points, points[1:]):
            if t0 <= when <= t1:
                if t1 == t0:
                    return b0
                frac = (when - t0) / (t1 - t0)
                return b0 + frac * (b1 - b0)
        # Past the final checkpoint: extrapolate through any in-progress
        # busy interval.  busy_time() - (now - when) is exact when the
        # tracker has been continuously busy over [when, now], and a lower
        # bound (clamped by the last checkpoint) otherwise.
        return max(points[-1][1],
                   self.busy_time() - (self.env.now - when))


class PeriodicSampler:
    """Polls a callable every ``interval`` and stores (time, value) pairs.

    Drives the paper's sampled time series, e.g. per-worker CPU utilization
    and connection counts in Fig. 13.
    """

    def __init__(self, env: Environment, interval: float,
                 probe: Callable[[], float], name: str = ""):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.env = env
        self.interval = interval
        self.probe = probe
        self.name = name
        self.samples: List[Tuple[float, float]] = []
        self._proc = env.process(self._run(), name=f"sampler:{name}")

    def _run(self):
        from .engine import Interrupt
        try:
            while True:
                yield self.interval  # direct timer
                self.samples.append((self.env.now, float(self.probe())))
        except Interrupt:
            return

    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    def stop(self) -> None:
        if self._proc.is_alive:
            self._proc.interrupt("sampler stopped")
