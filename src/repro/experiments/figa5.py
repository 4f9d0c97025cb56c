"""Fig. A5 — CDF of forwarding rules per port.

The appendix argument against cache-aware scheduling: tenant forwarding
rules vary so much per port that no code locality exists to exploit.  We
generate a tenant population with the long-tailed rule-count model and
report the CDF plus its dispersion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.stats import cdf_points, coefficient_of_variation, percentile
from ..lb.tenant import TenantDirectory
from ..sim.rng import RngRegistry
from .registry import simple_experiment

__all__ = ["RuleCdfResult", "run_figa5"]


@dataclass
class RuleCdfResult:
    cdf: List[Tuple[float, float]]
    p50: float
    p90: float
    p99: float
    cov: float
    n_ports: int


def run_figa5(n_tenants: int = 2000, ports_per_tenant: int = 2,
              mean_rules: float = 10.0, seed: int = 67) -> RuleCdfResult:
    rng = RngRegistry(seed).stream("tenants")
    directory = TenantDirectory.build(
        n_tenants, rng, ports_per_tenant=ports_per_tenant,
        mean_rules=mean_rules)
    rules = [float(r) for r in directory.rules_per_port()]
    return RuleCdfResult(
        cdf=cdf_points(rules),
        p50=percentile(rules, 50),
        p90=percentile(rules, 90),
        p99=percentile(rules, 99),
        cov=coefficient_of_variation(rules),
        n_ports=len(rules),
    )


def _rendered(r: RuleCdfResult) -> str:
    return (f"{r.n_ports} ports: rules P50 {r.p50:.0f}  P90 {r.p90:.0f}  "
            f"P99 {r.p99:.0f}  CoV {r.cov:.2f}")


def _runner(seed: int, params: dict) -> dict:
    from dataclasses import asdict
    r = run_figa5(
        n_tenants=params.get("n_tenants", 2000),
        ports_per_tenant=params.get("ports_per_tenant", 2),
        mean_rules=params.get("mean_rules", 10.0), seed=seed)
    return dict(asdict(r), rendered=_rendered(r))


simple_experiment("figa5", "CDF of forwarding rules per port",
                  _runner, default_seed=67,
                  tunables={"n_tenants": "tenants in the directory",
                            "ports_per_tenant": "ports each tenant owns",
                            "mean_rules": "mean forwarding rules per port"})


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(_rendered(run_figa5()))
