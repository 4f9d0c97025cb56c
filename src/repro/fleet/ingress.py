"""Ingress tier: how flows reach an LB instance (§6.1, scaled out).

Production L7 fleets sit behind an L4/ECMP tier that steers each flow to
one of N LB instances by hashing the packet 5-tuple.  Two policies are
modelled, both fully deterministic under a fixed ``hash_seed``:

- :class:`EcmpIngress` — router-style ECMP: ``hash(4-tuple) mod N`` via the
  kernel's ``reciprocal_scale``, exactly the spray the single-tier
  :class:`~repro.cluster.LBCluster` has always used.  Cheap and stateless,
  but shrinking or growing the active set remaps ~``(N-1)/N`` of the flow
  space (every slot boundary moves).
- :class:`ConsistentHashRing` — a vnode ring (à la Karger/Maglev-family
  consistent hashing): each instance owns ``vnodes`` pseudo-random points
  on a 32-bit ring; a flow maps to the first point clockwise of its hash.
  Membership changes remap only the keys adjacent to the joining/leaving
  instance's points (≈ ``K/N`` of the keyspace).  With ``load_factor``
  set, the ring becomes *bounded-load* consistent hashing (CH-BL): an
  instance already at ``ceil(load_factor * total / N)`` connections is
  skipped and the flow walks clockwise to the next underloaded instance.

Both expose ``pick(four_tuple, active)``; instances are any objects with a
stable ``name`` attribute (ring point derivation) — in practice
:class:`~repro.lb.server.LBServer` devices.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from ..kernel.hash import (FourTuple, jhash_4tuple, jhash_words,
                           reciprocal_scale)

__all__ = ["EcmpIngress", "ConsistentHashRing", "make_ingress",
           "INGRESS_POLICIES"]

#: Ingress policy spellings accepted by :func:`make_ingress` and the CLI.
INGRESS_POLICIES = ("ecmp", "ring", "ring_bounded")


def _name_words(name: str) -> List[int]:
    """Pack an instance name into 32-bit words for jhash (utf-8, padded)."""
    data = name.encode("utf-8")
    words = []
    for offset in range(0, len(data), 4):
        chunk = data[offset:offset + 4]
        words.append(int.from_bytes(chunk.ljust(4, b"\0"), "little"))
    return words or [0]


class EcmpIngress:
    """Router-style ECMP: flow-hash modulo the active instance count.

    This is byte-for-byte the historical :class:`~repro.cluster.LBCluster`
    spray — ``active[reciprocal_scale(jhash_4tuple(ft, seed), len(active))]``
    — factored out so cluster and fleet share one implementation.
    """

    name = "ecmp"

    def __init__(self, hash_seed: int = 0x5eed):
        self.hash_seed = hash_seed

    def pick(self, four_tuple: FourTuple, active: Sequence) -> object:
        """Select the owning instance for a new flow."""
        flow_hash = jhash_4tuple(four_tuple, self.hash_seed)
        return active[reciprocal_scale(flow_hash, len(active))]


class ConsistentHashRing:
    """Consistent-hash ring with vnodes and an optional bounded-load walk.

    ``load_factor=None`` gives the plain ring; a float > 1 arms CH-BL:
    the clockwise walk skips instances whose load (``load_of(instance)``,
    default: live worker connection count) has reached
    ``ceil(load_factor * (total_load + 1) / len(active))``.
    """

    def __init__(self, hash_seed: int = 0x5eed, vnodes: int = 64,
                 load_factor: Optional[float] = None,
                 load_of: Optional[Callable[[object], int]] = None):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if load_factor is not None and load_factor <= 1.0:
            raise ValueError("load_factor must be > 1 (or None)")
        self.hash_seed = hash_seed
        self.vnodes = vnodes
        self.load_factor = load_factor
        self.load_of = load_of if load_of is not None else _worker_conn_load
        self.name = "ring" if load_factor is None else "ring_bounded"
        #: membership key -> (sorted point list, instance list per point).
        self._rings: dict = {}

    # -- ring construction -------------------------------------------------
    def points_for(self, instance_name: str) -> List[int]:
        """The vnode points one instance owns (deterministic in the seed)."""
        words = _name_words(instance_name)
        return [jhash_words(words + [replica], self.hash_seed)
                for replica in range(self.vnodes)]

    def _ring_for(self, active: Sequence) -> Tuple[List[int], List[object]]:
        key = tuple(getattr(inst, "name", str(index))
                    for index, inst in enumerate(active))
        cached = self._rings.get(key)
        if cached is not None:
            return cached
        pairs = []
        for index, inst in enumerate(active):
            for point in self.points_for(key[index]):
                # Tie-break equal points by membership order so the ring
                # is fully determined by (seed, membership sequence).
                pairs.append((point, index))
        pairs.sort()
        points = [point for point, _index in pairs]
        owners = [active[index] for _point, index in pairs]
        ring = (points, owners)
        self._rings[key] = ring
        return ring

    # -- selection ---------------------------------------------------------
    def pick(self, four_tuple: FourTuple, active: Sequence) -> object:
        """First instance clockwise of the flow hash (bounded-load aware)."""
        if len(active) == 1:
            return active[0]
        points, owners = self._ring_for(active)
        flow_hash = jhash_4tuple(four_tuple, self.hash_seed)
        start = bisect_right(points, flow_hash) % len(points)
        if self.load_factor is None:
            return owners[start]
        capacity = self._capacity(active)
        seen = 0
        index = start
        while seen < len(points):
            candidate = owners[index]
            if self.load_of(candidate) < capacity:
                return candidate
            index = (index + 1) % len(points)
            seen += 1
        # Every instance at capacity: fall back to the plain ring owner.
        return owners[start]

    def _capacity(self, active: Sequence) -> int:
        total = 0
        for inst in active:
            total += self.load_of(inst)
        return max(1, math.ceil(self.load_factor * (total + 1) / len(active)))


def _worker_conn_load(instance) -> int:
    """Default CH-BL load signal: live connections across the workers."""
    total = 0
    for worker in instance.workers:
        total += len(worker.conns)
    return total


def make_ingress(policy: str, hash_seed: int = 0x5eed, vnodes: int = 64,
                 load_factor: float = 1.25):
    """Build an ingress policy from its CLI spelling."""
    if policy == "ecmp":
        return EcmpIngress(hash_seed)
    if policy == "ring":
        return ConsistentHashRing(hash_seed, vnodes=vnodes)
    if policy == "ring_bounded":
        return ConsistentHashRing(hash_seed, vnodes=vnodes,
                                  load_factor=load_factor)
    raise ValueError(f"unknown ingress policy {policy!r}; "
                     f"choose from {', '.join(INGRESS_POLICIES)}")
