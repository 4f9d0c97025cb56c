"""Process-sharded fleet execution: one LB instance per shard.

The unsharded :class:`~repro.fleet.Fleet` simulates every instance inside
one event loop — fine for 8 instances, hopeless for 64+.  This module
exploits what the ingress tier already guarantees: **instances do not
talk to each other**.  A flow is steered to exactly one instance by a
pure function of its 4-tuple (ECMP / consistent hashing), backend churn
is a deterministic global rule, and the stateless lookup tier recomputes
``backend_for(flow_hash, version)`` from shared constants.  So instance
``i``'s entire simulation is reproducible from the seed alone — no
cross-shard messages — and a fleet of N instances can run as N
independent single-instance simulations whose outputs merge
deterministically.

A shard is the serial fleet run with one instance:
``run_fleet(..., shard=i, arrivals=...)`` builds instance ``i`` exactly
as the whole fleet would, behind a :class:`ShardIngress`, with the same
:func:`~repro.fleet.fleet_faults` churn plan, and runs and checks it as
:func:`~repro.fleet.run_fleet` runs every fleet.

How determinism is kept byte-identical across ``--jobs N``:

- One arrival spine: :func:`fleet_arrivals` draws the seeded fleet-wide
  stream once, in the parent, through
  :func:`~repro.workloads.generator.arrivals` — for every arrival the
  inter-arrival gap, the port pick, the 4-tuple and a fresh
  per-connection seed, in that order — and hands each arrival to the
  instance the global ingress function picks.  Each shard receives
  only its own slice of ``(time, four_tuple, conn_seed)`` records and
  hands it to :meth:`TrafficGenerator.replay
  <repro.workloads.generator.TrafficGenerator.replay>`, the client driver
  every cell uses; it never draws, hashes or times a foreign arrival.
- Per-connection client behaviour (request payloads, think-time gaps)
  draws from a private ``Stream(conn_seed)``, so a connection behaves
  the same whichever shard, in whichever process, simulates it, and
  whatever other arrivals share its shard.
- Merging reuses the slot-indexed collection + enumeration-order merge
  pattern ``repro.sweep`` proved byte-identical: shard results land in
  a list indexed by shard id, and all reductions (pooled latency
  samples, summed counters, PCC verdicts) run in that fixed order
  regardless of completion order or worker count.

Not supported sharded (refused loudly rather than silently wrong):
instance crashes (cross-shard failover migrates connections between
instances), bounded-load ring ingress (the pick depends on live remote
load), and client reconnect-on-reset (the retry would need to re-enter
the global arrival stream; ``replay`` refuses it).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..fanout import fan_out
from ..kernel.hash import FourTuple
from ..sim.rng import RngRegistry
from ..workloads.generator import Arrival, arrivals
from .fleet import (N_BACKENDS, FleetPolicy, check_churn, fleet_spec,
                    metrics_doc, reduce_metrics, run_fleet)
from .ingress import make_ingress

__all__ = ["ShardIngress", "fleet_arrivals", "run_shard",
           "run_sharded_fleet", "merge_shards", "SHARDED_UNSUPPORTED"]

SHARDED_UNSUPPORTED = (
    "instance crashes (--crash-at)",
    "bounded-load ring ingress (ring_bounded)",
    "client reconnect_on_reset",
)


class _NameProxy:
    """Stand-in for a remote instance: just enough for ingress hashing."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index


class ShardIngress:
    """Evaluates the *global* ingress policy over the whole fleet.

    The real policy object (ECMP or plain consistent-hash ring) picks
    over a fixed list of name proxies — one per fleet instance — so the
    decision is bit-identical to the unsharded fleet's.  ``owner()`` is
    the global pick the arrival spine splits the stream with; ``pick()``
    satisfies a shard's local single-instance cluster, asserting that
    only flows owned by ``shard_index`` ever reach it.
    """

    def __init__(self, policy: str, hash_seed: int, n_instances: int,
                 shard_index: Optional[int] = None):
        if policy == "ring_bounded":
            raise ValueError(
                "ring_bounded ingress cannot be sharded: the bounded-load "
                "walk depends on live load of remote instances")
        self.inner = make_ingress(policy, hash_seed=hash_seed)
        self.n_instances = n_instances
        self.shard_index = shard_index
        self.proxies = [_NameProxy(f"lb{i}", i) for i in range(n_instances)]
        #: Mirrors the wrapped policy's name so the merged summary doc
        #: matches the unsharded fleet's ``ingress`` field.
        self.name = self.inner.name

    def owner(self, four_tuple: FourTuple) -> int:
        """Global instance index this flow is steered to."""
        return self.inner.pick(four_tuple, self.proxies).index

    def pick(self, four_tuple: FourTuple, active: Sequence) -> object:
        """Local cluster hook: only ever sees flows this shard owns."""
        owner = self.owner(four_tuple)
        if owner != self.shard_index:
            raise AssertionError(
                f"shard {self.shard_index} asked to place a flow owned by "
                f"instance {owner}")
        return active[0]


def fleet_arrivals(seed: int, n_instances: int, duration: float,
                   conn_rate: float, ingress: str = "ecmp"
                   ) -> Tuple[List[List[Arrival]], int]:
    """Split the fleet's arrival spine by owner.

    Every arrival of :func:`~repro.workloads.generator.arrivals` for
    ``fleet_spec(duration, conn_rate)`` at ``seed`` goes to the instance
    the global ingress function steers it to.  Returns one time-ordered
    ``(time, four_tuple, conn_seed)`` list per instance, indexed by that
    owner, and the fleet-wide arrival count.
    """
    spec = fleet_spec(duration, conn_rate)
    if n_instances < 1:
        raise ValueError("need at least one instance")
    owner = ShardIngress(
        ingress, RngRegistry(seed).stream("hash").randrange(2 ** 32),
        n_instances).owner
    slices: List[List[Arrival]] = [[] for _ in range(n_instances)]
    for arrival in arrivals(spec, seed):
        slices[owner(arrival[1])].append(arrival)
    return slices, sum(map(len, slices))


def run_shard(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one fleet instance end to end; return a picklable doc.

    The payload is :func:`~repro.fleet.run_fleet`'s keywords, its
    ``arrivals`` the shard's slice of :func:`fleet_arrivals`, plus
    ``shard_index`` and ``total_arrivals``.  So the shard is instance
    ``i`` of the serial fleet, built, churned and checked the same way;
    the rest of ``total_arrivals`` counts as foreign.
    """
    options = dict(payload)
    shard, total = options.pop("shard_index"), options.pop("total_arrivals")
    run = run_fleet(shard=shard, **options)
    env, fleet, gen = run.cell.env, run.cell.server, run.cell.gen
    instance = fleet.instances[0]
    return {
        "shard_index": shard,
        "instance": instance.name,
        **metrics_doc(instance),
        "backend_version": fleet.backend_map.version,
        "churn_events": fleet.churn_events,
        "broken_backend": fleet.broken_backend,
        "broken": fleet.broken_connections(),
        "opened": gen.stats.connections_opened,
        "conn_refused": gen.stats.connections_refused,
        "conn_reset": gen.stats.connections_reset,
        "requests_sent": gen.stats.requests_sent,
        "foreign": total - len(payload["arrivals"]),
        "pcc_violations": len(run.pcc.violations) if run.pcc else 0,
        "passes": run.passes,
        "steps": env.steps,
    }


def merge_shards(shards: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Deterministic cross-shard reduction, in shard-index order.

    The metric fields are :func:`repro.fleet.fleet.reduce_metrics` over
    the shard docs — the same reduction the unsharded fleet runs.
    PCC/invariant verdict counters sum per key.
    """
    shards = sorted(shards, key=lambda d: d["shard_index"])
    merged = reduce_metrics(shards)
    versions = {doc["backend_version"] for doc in shards}
    if len(versions) != 1:
        raise AssertionError(
            f"shards diverged on backend version: {sorted(versions)}")
    passes: Dict[str, int] = {}
    for doc in shards:
        for name in sorted(doc["passes"]):
            passes[name] = passes.get(name, 0) + doc["passes"][name]
    merged.update({
        "backend_version": versions.pop(),
        "churn_events": max(doc["churn_events"] for doc in shards),
        "broken_backend": sum(doc["broken_backend"] for doc in shards),
        "broken": sum(doc["broken"] for doc in shards),
        "opened": sum(doc["opened"] for doc in shards),
        "conn_refused": sum(doc["conn_refused"] for doc in shards),
        "conn_reset": sum(doc["conn_reset"] for doc in shards),
        "requests_sent": sum(doc["requests_sent"] for doc in shards),
        "foreign": sum(doc["foreign"] for doc in shards),
        "pcc_violations": sum(doc["pcc_violations"] for doc in shards),
        "passes": {k: passes[k] for k in sorted(passes)},
        "steps": sum(doc["steps"] for doc in shards),
        "sharded": True,
    })
    return merged


def run_sharded_fleet(policy: str = "stateless", n_instances: int = 4,
                      n_workers: int = 2, seed: int = 31,
                      duration: float = 1.5, conn_rate: float = 150.0,
                      churn_at: Optional[float] = 0.6, churn_k: int = 2,
                      ingress: str = "ecmp", jobs: int = 1,
                      check: bool = False) -> Dict[str, Any]:
    """Run a fleet as ``n_instances`` independent shards, then merge.

    Shards run through :func:`repro.fanout.fan_out`: ``jobs=1`` runs
    them serially in this process, reclaiming each finished shard before
    the next starts; ``jobs>1`` fans them across a process pool.  Output
    is byte-identical either way (slot-indexed collection, enumeration-
    order merge).  The arrival stream is drawn once, here, and each
    shard's payload carries only its own slice.  ``check`` arms
    :func:`~repro.check.watch_fleet` and live oracles in every shard.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    FleetPolicy(policy)  # validate early, before any worker spawns
    if churn_at is not None:
        check_churn(churn_k, N_BACKENDS)
    # Also refuses ring_bounded ingress and rates or durations that
    # cannot be honoured.
    slices, total = fleet_arrivals(seed, n_instances, duration, conn_rate,
                                   ingress)
    payloads = [
        {
            "shard_index": index,
            "n_instances": n_instances,
            "n_workers": n_workers,
            "policy": policy,
            "ingress": ingress,
            "seed": seed,
            "duration": duration,
            "conn_rate": conn_rate,
            "churn_at": churn_at,
            "churn_k": churn_k,
            "check": check,
            "arrivals": slices[index],
            "total_arrivals": total,
        }
        for index in range(n_instances)
    ]
    merged = merge_shards(fan_out(run_shard, payloads, jobs))
    merged["policy"] = policy
    merged["ingress"] = ingress
    merged["seed"] = seed
    merged["jobs_invariant"] = True  # byte-identical for any --jobs N
    return merged
