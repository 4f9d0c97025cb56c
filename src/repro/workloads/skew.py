"""Tenant traffic skew models.

§7: "tenant traffic is heavily skewed.  A small number of top tenants
contribute the majority of traffic (e.g., the top three tenants account for
40%, 28%, and 22% of the overall traffic in one of our regions...)".

Helpers here produce weighted tenant/port populations: either the paper's
measured top-heavy shares or parametric Zipf weights.
"""

from __future__ import annotations

from typing import List, Sequence

from .._sum import left_sum

__all__ = ["zipf_weights", "top_heavy_weights", "PAPER_TOP3_REGION_A",
           "PAPER_TOP3_REGION_B"]

#: The two measured regions' top-3 tenant shares (rest uniform).
PAPER_TOP3_REGION_A = (0.40, 0.28, 0.22)
PAPER_TOP3_REGION_B = (0.23, 0.10, 0.04)


def zipf_weights(n: int, alpha: float = 1.0) -> List[float]:
    """Zipf(alpha) weights over ``n`` tenants, normalized to sum 1."""
    if n < 1:
        raise ValueError("need at least one tenant")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    raw = [1.0 / (rank ** alpha) for rank in range(1, n + 1)]
    total = left_sum(raw)
    return [w / total for w in raw]


def top_heavy_weights(n: int,
                      top_shares: Sequence[float] = PAPER_TOP3_REGION_A,
                      ) -> List[float]:
    """Weights where the first tenants take fixed shares, rest uniform."""
    if n < 1:
        raise ValueError("need at least one tenant")
    shares = list(top_shares)[:n]
    if left_sum(shares) > 1.0 + 1e-9:
        raise ValueError("top shares must sum to <= 1")
    remainder = max(0.0, 1.0 - left_sum(shares))
    n_rest = n - len(shares)
    if n_rest == 0:
        total = left_sum(shares)
        return [s / total for s in shares]
    return shares + [remainder / n_rest] * n_rest
