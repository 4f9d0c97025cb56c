"""Connection arrival process.

Open-loop generation: arrivals occur at their own pace regardless of how
the LB keeps up, which is what exposes overload behaviour (closed-loop
clients would implicitly throttle and mask it).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.engine import Environment, Interrupt
from ..sim.rng import Stream

__all__ = ["PoissonArrivals"]


class PoissonArrivals:
    """Poisson arrivals at a fixed rate.

    Calls ``sink(index)`` for every arrival.
    """

    def __init__(self, env: Environment, rng: Stream,
                 rate: float, sink: Callable[[int], None],
                 until: Optional[float] = None, name: str = "arrivals"):
        self.env = env
        self.rng = rng
        self.rate = float(rate)
        self.sink = sink
        self.until = until
        self.count = 0
        self._proc = env.process(self._run(), name=name)

    def _run(self):
        rate = self.rate
        if rate <= 0:
            return
        try:
            while self.until is None or self.env.now < self.until:
                yield self.env.timeout(self.rng.expovariate(rate))
                if self.until is not None and self.env.now >= self.until:
                    return
                self.sink(self.count)
                self.count += 1
        except Interrupt:
            return

    def stop(self) -> None:
        if self._proc.is_alive:
            self._proc.interrupt("stopped")
