"""Tunables of the Prequal scheduling subsystem.

Defaults follow the Prequal paper's published operating point where the
simulation has an equivalent knob: probes are pooled (16 entries), replies
are removed on use (reuse budget 1) and evicted by age, and the hot/cold
classification threshold sits at a high RIF quantile so only the most
loaded replicas land in the hot lane.  Deltas from the paper are noted on
each field and summarized in ``docs/API.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..core import tunables as _tunables

__all__ = ["PrequalConfig", "config_from_overrides"]

#: Selection policies: the paper's hot/cold lane rule plus the two single-
#: signal ablations it argues against.
POLICIES = ("hcl", "latency", "rif")


@dataclass(frozen=True)
class PrequalConfig:
    """Tunables of the probe-based, latency-aware scheduler."""

    #: Probes issued per replenishment decision (the paper's power-of-d
    #: sampling; it recommends small d with probe reuse).
    d: int = 3
    #: Maximum pooled probe replies per LB.
    pool_size: int = 16
    #: Staleness bound: pooled replies older than this are evicted
    #: (anti-herding — stale low-RIF replies cause synchronized dogpiles).
    max_age: float = 0.4
    #: RIF quantile splitting hot from cold: a reply whose RIF is at or
    #: above the ``q_hot`` quantile of pooled RIFs is hot.
    q_hot: float = 0.84
    #: Selections one pooled reply may serve before removal
    #: (1 = remove-on-use, the paper's default).
    reuse_budget: int = 1
    #: Token-bucket ceiling on the probe rate (probes per second).  Probes
    #: are near-free (10 µs of worker CPU), and the paper issues probes per
    #: query, so the ceiling must sit above the expected dispatch rate —
    #: a starved pool degrades every decision to the hash fallback.
    probe_rate: float = 60000.0
    #: Token-bucket burst (probes that may be issued back-to-back).
    probe_burst: int = 64
    #: Background refresh period: every interval the prober samples ``d``
    #: workers, keeping the pool warm even when no queries arrive.
    probe_interval: float = 0.02
    #: Selection policy: ``"hcl"`` (hot/cold lanes), or the single-signal
    #: ablations ``"latency"`` / ``"rif"``.
    policy: str = "hcl"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if self.max_age <= 0:
            raise ValueError("max_age must be positive")
        if not 0.0 < self.q_hot <= 1.0:
            raise ValueError("q_hot must be in (0, 1]")
        if self.reuse_budget < 1:
            raise ValueError("reuse_budget must be >= 1")
        if self.probe_rate <= 0:
            raise ValueError("probe_rate must be positive")
        if self.probe_burst < 1:
            raise ValueError("probe_burst must be >= 1")
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")


    def tunables(self) -> dict:
        """Field -> value, for ``repro list`` metadata and run summaries."""
        return _tunables.tunable_values(self)


def config_from_overrides(overrides: Mapping[str, Any]) -> PrequalConfig:
    """Build a config from ``--set KEY=VALUE`` pairs, rejecting unknowns.

    String values (what the CLI hands over) are coerced to the field's
    declared type; typed values (experiment override dicts) pass through.
    The shared coercion lives in :mod:`repro.core.tunables`.
    """
    return _tunables.config_from_overrides(PrequalConfig, overrides,
                                           label="prequal")
