"""Tenant and port modelling (§2.1, Fig. 1).

The L4 layer NATs each tenant's traffic (originally to :80/:443) onto
distinct device-local ports; the L7 LB binds listening sockets per port.
A :class:`TenantDirectory` builds that port plan: tenants, their ports,
their traffic weights (skewed per §7), and per-port forwarding-rule counts
(Fig. A5 — rule-count diversity is the paper's argument that there is no
code locality worth preserving).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..sim.rng import Stream
from ..workloads.skew import zipf_weights

__all__ = ["Tenant", "TenantDirectory"]

#: First device-local port handed out by the L4 NAT layer.
BASE_PORT = 20001


@dataclass
class Tenant:
    """One tenant: an ALB instance owner."""

    tenant_id: int
    name: str
    ports: List[int]
    #: Relative traffic share.
    weight: float = 1.0
    #: Forwarding rules per port (route matching complexity).
    rules_per_port: Dict[int, int] = field(default_factory=dict)

    @property
    def total_rules(self) -> int:
        return sum(self.rules_per_port.values())


class TenantDirectory:
    """Builds and indexes the tenant/port plan of one LB deployment."""

    def __init__(self, tenants: Sequence[Tenant]):
        if not tenants:
            raise ValueError("need at least one tenant")
        self.tenants = list(tenants)
        self._by_port: Dict[int, Tenant] = {}
        for tenant in self.tenants:
            for port in tenant.ports:
                if port in self._by_port:
                    raise ValueError(f"port {port} assigned twice")
                self._by_port[port] = tenant

    @classmethod
    def build(cls, n_tenants: int, rng: Stream,
              ports_per_tenant: int = 1,
              skew_alpha: float = 1.0,
              weights: Optional[Sequence[float]] = None,
              mean_rules: float = 8.0) -> "TenantDirectory":
        """Generate a synthetic tenant population.

        Traffic weights default to Zipf(``skew_alpha``); forwarding-rule
        counts are geometric-ish with the given mean (long tail, min 1),
        matching the Fig. A5 shape.
        """
        if n_tenants < 1:
            raise ValueError("need at least one tenant")
        if ports_per_tenant < 1:
            raise ValueError("need at least one port per tenant")
        tenant_weights = (list(weights) if weights is not None
                          else zipf_weights(n_tenants, skew_alpha))
        if len(tenant_weights) != n_tenants:
            raise ValueError("weights length must equal n_tenants")
        tenants: List[Tenant] = []
        next_port = BASE_PORT
        for i in range(n_tenants):
            ports = list(range(next_port, next_port + ports_per_tenant))
            next_port += ports_per_tenant
            rules = {
                port: max(1, int(rng.expovariate(1.0 / mean_rules)) + 1)
                for port in ports
            }
            tenants.append(Tenant(
                tenant_id=i, name=f"tenant{i}", ports=ports,
                weight=tenant_weights[i], rules_per_port=rules))
        return cls(tenants)

    # -- lookups -----------------------------------------------------------
    def tenant_for_port(self, port: int) -> Tenant:
        return self._by_port[port]

    @property
    def all_ports(self) -> List[int]:
        return [port for tenant in self.tenants for port in tenant.ports]

    @property
    def port_weights(self) -> List[float]:
        """Traffic weight of each port in ``all_ports`` order (a tenant's
        weight is split evenly across its ports)."""
        weights = []
        for tenant in self.tenants:
            share = tenant.weight / len(tenant.ports)
            weights.extend([share] * len(tenant.ports))
        return weights

    def rules_per_port(self) -> List[int]:
        """Forwarding-rule counts across all ports (Fig. A5 input)."""
        return [tenant.rules_per_port[port]
                for tenant in self.tenants for port in tenant.ports]
