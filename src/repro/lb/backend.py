"""Backend server pools and upstream connection management (§7 Experiences).

Two production incidents from the paper's deployment are reproducible here:

1. **Synchronized round-robin restarts.**  After a server-list update every
   worker restarts round-robin from the first server; with Hermes spreading
   requests across all workers (each handling few), the head servers get
   2-3× traffic.  ``randomize_offsets=True`` applies the paper's fix.

2. **Reduced upstream connection reuse.**  Spreading client traffic over
   all workers spreads upstream connections too; per-worker pools then miss
   more often, costing a fresh (possibly cross-Internet) handshake.
   ``shared_pool=True`` applies the paper's fix (one pool for all workers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.rng import Stream

__all__ = ["BackendServer", "BackendPool"]


@dataclass
class BackendServer:
    """One upstream server behind the LB."""

    server_id: int
    name: str = ""
    requests_received: int = 0
    #: Idle upstream connections currently pooled to this server,
    #: keyed by pool owner ("shared" or a worker id).
    idle_connections: Dict[object, int] = field(default_factory=dict)


class BackendPool:
    """A tenant's backend server list with per-worker round-robin."""

    def __init__(self, n_servers: int, n_workers: int,
                 shared_pool: bool = False,
                 handshake_cost: float = 0.002):
        if n_servers < 1 or n_workers < 1:
            raise ValueError("need at least one server and one worker")
        self.servers: List[BackendServer] = [
            BackendServer(i, name=f"backend{i}") for i in range(n_servers)]
        self.n_workers = n_workers
        self.shared_pool = shared_pool
        #: Latency cost of establishing a fresh upstream connection
        #: (TCP/TLS over distance for on-prem IDC backends).
        self.handshake_cost = handshake_cost
        #: Per-worker round-robin cursor.
        self._cursors: List[int] = [0] * n_workers
        # -- statistics -----------------------------------------------------
        self.list_updates = 0
        self.pool_hits = 0
        self.pool_misses = 0

    # -- server list management ------------------------------------------
    def update_server_list(self, n_servers: int,
                           rng: Optional[Stream] = None,
                           randomize_offsets: bool = False) -> None:
        """The controller pushed a new server list to every worker.

        Without ``randomize_offsets`` every worker restarts round-robin at
        index 0 (the incident); with it, each worker starts at a random
        offset (the fix).
        """
        if n_servers < 1:
            raise ValueError("need at least one server")
        if randomize_offsets and rng is None:
            raise ValueError("randomize_offsets needs an rng")
        self.servers = [BackendServer(i, name=f"backend{i}")
                        for i in range(n_servers)]
        self.list_updates += 1
        if randomize_offsets:
            self._cursors = [rng.randrange(n_servers)
                             for _ in range(self.n_workers)]
        else:
            self._cursors = [0] * self.n_workers

    # -- request forwarding -------------------------------------------------
    def next_server(self, worker_id: int) -> BackendServer:
        """Round-robin pick for one forwarded request."""
        if not 0 <= worker_id < self.n_workers:
            raise IndexError(f"worker id {worker_id} out of range")
        cursor = self._cursors[worker_id]
        server = self.servers[cursor % len(self.servers)]
        self._cursors[worker_id] = (cursor + 1) % len(self.servers)
        server.requests_received += 1
        return server

    def forward(self, worker_id: int) -> float:
        """Forward one request; returns the upstream latency penalty.

        Reuses an idle pooled connection when one exists for this worker
        (or for anyone, with a shared pool); otherwise pays the handshake
        cost and pools the new connection afterwards.
        """
        server = self.next_server(worker_id)
        key = "shared" if self.shared_pool else worker_id
        if server.idle_connections.get(key, 0) > 0:
            # Borrow an idle upstream connection; it returns to the pool
            # when the exchange finishes, so the count is unchanged.
            self.pool_hits += 1
            return 0.0
        self.pool_misses += 1
        server.idle_connections[key] = \
            server.idle_connections.get(key, 0) + 1
        return self.handshake_cost

    # -- diagnostics -----------------------------------------------------------
    def request_counts(self) -> List[int]:
        return [s.requests_received for s in self.servers]

    def imbalance_ratio(self) -> float:
        """max/mean requests per server (1.0 == perfectly even)."""
        counts = self.request_counts()
        total = sum(counts)
        if total == 0:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean

    def total_handshakes(self) -> int:
        return self.pool_misses
