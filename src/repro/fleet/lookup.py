"""Connection-to-backend lookup policies: stateful vs Concury-stateless.

Once the ingress tier lands a flow on an LB instance, the L7 layer must
remember which *backend* serves the connection for its whole life — the
per-connection-consistency (PCC) requirement.  Two policies from the
literature (PAPERS.md) are modelled head-to-head:

- :class:`StatefulLookup` — the classic per-instance connection table
  (the Technion LB-scalability paper's "stateful" point): O(1) dict hit
  on every packet, but the table dies with its instance, so an instance
  failover breaks every connection it carried.
- :class:`StatelessLookup` — Concury-style: **no per-connection state at
  all**.  The backend is a pure function of the flow hash and a
  *version-stamped* backend mapping (:class:`BackendMap`).  The only
  per-connection datum is the version stamp the connection was born
  under — in Concury that stamp rides in the packet (encoded in the
  timestamp option); here it rides in the fleet's flow record.  Any
  instance can recompute the backend from (flow hash, version), so the
  mapping survives instance failover by construction.

Design deltas vs Concury proper: Concury packs its stateless mapping
into a compact DCW (dynamic "othello" hashing) structure sized for a
P4/ASIC dataplane; here the per-version table is a plain rendezvous-hash
slot array — same O(1) lookup and same versioning semantics, without the
bit-packing that only matters at line rate.  Version history is kept in
full (a real deployment would garbage-collect versions older than the
oldest live connection).
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernel.hash import FourTuple, jhash_4tuple, jhash_words, reciprocal_scale

__all__ = ["FleetPolicy", "BackendMap", "StatefulLookup", "StatelessLookup",
           "make_lookup"]


class FleetPolicy(Enum):
    """How an LB instance resolves connection -> backend."""

    STATEFUL = "stateful"
    STATELESS = "stateless"


# Serves 30 of the 32 tables a seed-7 ``fleet16`` run builds (fast-path
# ledger, docs/PERFORMANCE.md).
@lru_cache(maxsize=256)
def hrw_table(backends: Tuple[int, ...], n_slots: int,
              hash_seed: int) -> Tuple[int, ...]:
    """The rendezvous (HRW) slot table: slot ``s`` goes to the backend
    with the highest ``jhash([s, backend], hash_seed)``, ties to the first.

    A pure function of its arguments, memoized per process, so every
    fleet shard (and every map version with the same backend set) shares
    one table.  The result is a tuple, so no holder can change it under
    another.
    """
    table = []
    for slot in range(n_slots):
        owner = backends[0]
        best = -1
        for backend in backends:
            weight = jhash_words([slot, backend], hash_seed)
            if weight > best:
                best = weight
                owner = backend
        table.append(owner)
    return tuple(table)


class BackendMap:
    """Version-stamped slot -> backend mapping shared by the whole fleet.

    Each version is a table of ``n_slots`` entries; slot ``s`` is owned by
    the backend with the highest rendezvous hash ``jhash(s, backend)``
    (HRW), so adding or removing one backend moves only the slots it
    wins or loses — minimal disruption, fully deterministic in the seed.
    ``update`` publishes a new version; old versions stay readable so
    connections stamped under them keep resolving to their birth backend.
    """

    def __init__(self, backends: Sequence[int], n_slots: int = 128,
                 hash_seed: int = 0x5eed):
        if not backends:
            raise ValueError("need at least one backend")
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self.n_slots = n_slots
        self.hash_seed = hash_seed
        self._backends: List[int] = list(backends)
        self._tables: List[Tuple[int, ...]] = [
            hrw_table(tuple(self._backends), n_slots, hash_seed)]

    @property
    def version(self) -> int:
        """The current (latest) mapping version."""
        return len(self._tables) - 1

    @property
    def backends(self) -> List[int]:
        """The backend set of the current version."""
        return list(self._backends)

    def update(self, backends: Sequence[int]) -> int:
        """Publish a new backend set; returns the new version stamp."""
        if not backends:
            raise ValueError("need at least one backend")
        self._backends = list(backends)
        self._tables.append(hrw_table(tuple(self._backends), self.n_slots,
                                      self.hash_seed))
        return self.version

    def backend_for(self, flow_hash: int, version: Optional[int] = None) -> int:
        """Resolve a flow hash under a version (default: current)."""
        if version is None:
            version = self.version
        table = self._tables[version]
        return table[reciprocal_scale(flow_hash, self.n_slots)]

    def slot_of(self, flow_hash: int) -> int:
        return reciprocal_scale(flow_hash, self.n_slots)


class StatelessLookup:
    """Concury-style: backend = f(flow hash, version stamp).  No table.

    ``assign`` computes the (backend, version) pair a fresh connection is
    stamped with; ``resolve`` recomputes it from scratch — any instance,
    including one that never saw the connection before, gets the same
    answer, which is exactly why the policy survives instance failover.
    """

    stateless = True

    def __init__(self, backend_map: BackendMap, hash_seed: int = 0x5eed):
        self.backend_map = backend_map
        self.hash_seed = hash_seed

    def flow_hash(self, four_tuple: FourTuple) -> int:
        return jhash_4tuple(four_tuple, self.hash_seed)

    def assign(self, four_tuple: FourTuple, instance_name: str,
               conn_id: int) -> Tuple[int, int]:
        version = self.backend_map.version
        backend = self.backend_map.backend_for(self.flow_hash(four_tuple),
                                               version)
        return backend, version

    def resolve(self, four_tuple: FourTuple, instance_name: str,
                conn_id: int, version: int) -> Optional[int]:
        return self.backend_map.backend_for(self.flow_hash(four_tuple),
                                            version)

    def drop_instance(self, instance_name: str) -> int:
        """An instance died: nothing to lose.  Returns entries lost (0)."""
        return 0

    def migrate(self, conn_id: int, old_instance: str,
                new_instance: str) -> None:
        """Adoption needs no state transfer under the stateless policy."""


class StatefulLookup:
    """Per-instance connection table (the classic stateful design).

    Assignment uses the *same* rendezvous computation as the stateless
    policy — so latency distributions are directly comparable — but the
    (backend, version) pair is then remembered in a table keyed by the
    owning instance.  ``drop_instance`` models the failover cost: the
    table is gone, and with it every mapping it held.
    """

    stateless = False

    def __init__(self, backend_map: BackendMap, hash_seed: int = 0x5eed):
        self.backend_map = backend_map
        self.hash_seed = hash_seed
        #: instance name -> {conn id -> (backend, version)}.
        self._tables: Dict[str, Dict[int, Tuple[int, int]]] = {}
        self.entries_lost = 0

    def flow_hash(self, four_tuple: FourTuple) -> int:
        return jhash_4tuple(four_tuple, self.hash_seed)

    def assign(self, four_tuple: FourTuple, instance_name: str,
               conn_id: int) -> Tuple[int, int]:
        version = self.backend_map.version
        backend = self.backend_map.backend_for(self.flow_hash(four_tuple),
                                               version)
        table = self._tables.setdefault(instance_name, {})
        table[conn_id] = (backend, version)
        return backend, version

    def resolve(self, four_tuple: FourTuple, instance_name: str,
                conn_id: int, version: int) -> Optional[int]:
        table = self._tables.get(instance_name)
        if table is None:
            return None
        entry = table.get(conn_id)
        if entry is None:
            return None
        return entry[0]

    def drop_instance(self, instance_name: str) -> int:
        """The instance's table dies with it; returns entries lost."""
        table = self._tables.pop(instance_name, None)
        lost = len(table) if table is not None else 0
        self.entries_lost += lost
        return lost

    def forget(self, instance_name: str, conn_id: int) -> None:
        table = self._tables.get(instance_name)
        if table is not None:
            table.pop(conn_id, None)

    def migrate(self, conn_id: int, old_instance: str,
                new_instance: str) -> None:
        """Move one table entry (drain-style handoff, not crash)."""
        table = self._tables.get(old_instance)
        if table is None:
            return
        entry = table.pop(conn_id, None)
        if entry is not None:
            self._tables.setdefault(new_instance, {})[conn_id] = entry

    def table_size(self, instance_name: str) -> int:
        table = self._tables.get(instance_name)
        return len(table) if table is not None else 0


def make_lookup(policy, backend_map: BackendMap, hash_seed: int = 0x5eed):
    """Build a lookup from a :class:`FleetPolicy` (or its string value)."""
    if isinstance(policy, str):
        policy = FleetPolicy(policy)
    if policy is FleetPolicy.STATELESS:
        return StatelessLookup(backend_map, hash_seed)
    return StatefulLookup(backend_map, hash_seed)
