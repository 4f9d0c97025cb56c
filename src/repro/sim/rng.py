"""Reproducible random-number streams.

Every stochastic component of the simulator (arrival processes, service-time
samplers, hash salt, failure injection) draws from its own named stream
derived from a single master seed.  This keeps experiments reproducible and
— crucially for A/B comparisons like Table 3 — lets two notification modes
see *identical* traffic while their internal randomness stays independent.
"""

from __future__ import annotations

import hashlib
import math
import random

from .._sum import left_sum

__all__ = ["RngRegistry", "Stream"]


class Stream(random.Random):
    """A named random stream; a thin subclass of :class:`random.Random`.

    Adds the handful of distributions the workload models need beyond the
    standard library.
    """

    def __init__(self, seed: int, name: str = ""):
        super().__init__(seed)
        self.name = name

    def poisson(self, lam: float) -> int:
        """Sample a Poisson variate (Knuth for small lam, normal approx above)."""
        if lam < 0:
            raise ValueError(f"lam must be >= 0, got {lam}")
        if lam == 0:
            return 0
        if lam > 50:
            # Normal approximation with continuity correction.
            return max(0, int(self.gauss(lam, math.sqrt(lam)) + 0.5))
        threshold = math.exp(-lam)
        k, product = 0, self.random()
        while product > threshold:
            k += 1
            product *= self.random()
        return k

    def zipf(self, n: int, alpha: float) -> int:
        """Sample a rank in ``1..n`` from a Zipf(alpha) distribution.

        Uses inverse-CDF over cached cumulative harmonic weights; ``n`` is a
        tenant/port count here (at most a few thousand), so the cache is
        cheap and the sampler is O(log n) per draw.
        """
        if n < 1:
            raise ValueError(f"zipf needs n >= 1, got {n}")
        if alpha <= 0:
            return self.randint(1, n)
        cache = getattr(self, "_zipf_cdf", None)
        if cache is None or cache[0] != (n, alpha):
            weights = [1.0 / (rank ** alpha) for rank in range(1, n + 1)]
            total = left_sum(weights)
            cdf, acc = [], 0.0
            for w in weights:
                acc += w / total
                cdf.append(acc)
            cache = ((n, alpha), cdf)
            self._zipf_cdf = cache
        cdf = cache[1]
        u = self.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo + 1

    def bounded_pareto(self, alpha: float, lower: float, upper: float) -> float:
        """Sample from a bounded Pareto distribution on [lower, upper]."""
        if not (0 < lower < upper):
            raise ValueError("need 0 < lower < upper")
        u = self.random()
        la, ha = lower ** alpha, upper ** alpha
        return (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / alpha)

    def lognormal_from_quantiles(self, p50: float, p99: float) -> float:
        """Sample a lognormal calibrated so its P50/P99 match the arguments."""
        if p50 <= 0 or p99 <= p50:
            raise ValueError("need 0 < p50 < p99")
        mu = math.log(p50)
        sigma = (math.log(p99) - mu) / 2.3263478740408408  # z_{0.99}
        return self.lognormvariate(mu, sigma)


class RngRegistry:
    """Deterministic factory of named :class:`Stream` objects.

    Streams with the same (master seed, name) are identical across runs and
    independent of the order in which other streams were created.
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """The stream for ``name``, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(
            f"{self.master_seed}:{name}".encode()).digest()
        seed = int.from_bytes(digest[:8], "big")
        stream = Stream(seed, name=name)
        self._streams[name] = stream
        return stream

    def fork(self, suffix: str) -> "RngRegistry":
        """A registry whose streams are all distinct from this one's."""
        digest = hashlib.sha256(
            f"{self.master_seed}/fork/{suffix}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))
