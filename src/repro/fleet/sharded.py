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

How determinism is kept byte-identical across ``--jobs N``:

- One arrival spine: :func:`fleet_arrivals` draws the seeded fleet-wide
  stream (``RngRegistry(seed).stream("traffic")``) once, in the parent —
  for every arrival the inter-arrival gap, the port pick, the 4-tuple and
  a fresh per-connection seed, in that order — and hands each arrival to
  the instance the global ingress function picks.  Each shard receives
  only its own slice of ``(time, four_tuple, conn_seed)`` records and
  schedules exactly those; it never draws, hashes or times a foreign
  arrival.
- Per-connection client behaviour (request payloads, think-time gaps)
  draws from a private ``Stream(conn_seed)``, so a connection behaves
  the same whichever shard, in whichever process, simulates it.
- Merging reuses the slot-indexed collection + enumeration-order merge
  pattern ``repro.sweep`` proved byte-identical: shard results land in
  a list indexed by shard id, and all reductions (pooled latency
  samples, summed counters, PCC verdicts, trace events) run in that
  fixed order regardless of completion order or worker count.

Not supported sharded (refused loudly rather than silently wrong):
instance crashes (cross-shard failover migrates connections between
instances), bounded-load ring ingress (the pick depends on live remote
load), and client reconnect-on-reset (the retry would need to re-enter
the global arrival stream).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..kernel.hash import FourTuple, jhash_words
from ..kernel.tcp import Connection, ConnState
from ..sim.engine import Environment
from ..sim.rng import RngRegistry, Stream
from .fleet import Fleet, FleetPolicy, reduce_metrics
from .ingress import make_ingress

__all__ = ["ShardIngress", "fleet_spec", "fleet_arrivals", "run_shard",
           "run_sharded_fleet", "merge_shards", "SHARDED_UNSUPPORTED"]

#: The LB device's own address in synthetic 4-tuples (mirrors
#: ``repro.workloads.generator.LB_IP``).
_LB_IP = 0xC0A80001

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


#: One fleet-wide arrival: (time, 4-tuple, per-connection seed).
Arrival = Tuple[float, FourTuple, int]


def fleet_spec(duration: float, conn_rate: float):
    """The fleet workload, sharded or not: arrivals stop 0.3 s before
    the run ends; each connection sends 20 fixed 200 µs requests."""
    from ..workloads.distributions import FixedFactory
    from ..workloads.generator import WorkloadSpec

    return WorkloadSpec(name="fleet", conn_rate=conn_rate,
                        duration=max(0.1, duration - 0.3),
                        factory=FixedFactory((200e-6,)), ports=(443,),
                        requests_per_conn=20, request_gap_mean=0.05)


def fleet_arrivals(seed: int, n_instances: int, duration: float,
                   conn_rate: float, ingress: str = "ecmp"
                   ) -> Tuple[List[List[Arrival]], int]:
    """Draw the fleet-wide arrival stream once and split it by owner.

    For every arrival, ``RngRegistry(seed).stream("traffic")`` is drawn
    in a fixed order: the inter-arrival gap, the port pick, the source IP
    and port, and a 64-bit per-connection seed.  Arrival times are the
    running float sum of the gaps; the stream ends at the first gap that
    would pass the arrival window.  Returns one time-ordered
    ``(time, four_tuple, conn_seed)`` list per instance, indexed by the
    global ingress owner, and the fleet-wide arrival count.
    """
    for name, value in (("conn_rate", conn_rate), ("duration", duration)):
        # Also refuses NaN and inf, either of which never ends the stream.
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if n_instances < 1:
        raise ValueError("need at least one instance")
    spec = fleet_spec(duration, conn_rate)
    registry = RngRegistry(seed)
    owner = ShardIngress(ingress, registry.stream("hash").randrange(2 ** 32),
                         n_instances).owner
    rng = registry.stream("traffic")
    rate = spec.conn_rate
    window = spec.duration
    n_ips = spec.n_client_ips
    port = spec.ports[0]
    slices: List[List[Arrival]] = [[] for _ in range(n_instances)]
    now = 0.0
    total = 0
    while True:
        gap = rng.expovariate(rate)
        if now + gap > window:
            return slices, total
        now = now + gap
        rng.random()                                  # port pick
        src_ip = 0x0A000000 + rng.randrange(n_ips)
        src_port = rng.randrange(1024, 65535)
        conn_seed = rng.getrandbits(64)
        four_tuple = FourTuple(src_ip, src_port, _LB_IP, port)
        slices[owner(four_tuple)].append((now, four_tuple, conn_seed))
        total += 1


class _ShardedTrafficGenerator:
    """Opens one shard's slice of the fleet-wide arrival stream.

    Every owned arrival is scheduled at set-up for its exact spine time
    (``0.0 + time == time``); everything per-connection afterwards uses
    the connection's private stream.
    """

    def __init__(self, env: Environment, fleet: Fleet,
                 arrivals: Sequence[Arrival], total: int, spec) -> None:
        if spec.reconnect_on_reset:
            raise ValueError(
                "reconnect_on_reset cannot be sharded: the retry would "
                "re-enter the global arrival stream")
        self.env = env
        self.fleet = fleet
        self.arrivals = arrivals
        self.spec = spec
        self.opened = 0
        self.refused = 0
        self.reset = 0
        self.requests_sent = 0
        #: Fleet-wide arrivals another shard owns.
        self.foreign = total - len(arrivals)

    def start(self) -> None:
        schedule = self.env.schedule_callback
        for time, four_tuple, conn_seed in self.arrivals:
            schedule(time, partial(self._open, four_tuple, conn_seed))

    def _open(self, four_tuple: FourTuple, conn_seed: int) -> None:
        conn = Connection(four_tuple, tenant_id=0,
                          created_time=self.env.now)
        self.opened += 1
        if not self.fleet.connect(conn):
            self.refused += 1
            return
        self.env.process(self._client(conn, Stream(conn_seed)),
                         name=f"client:{conn.id}")

    def _client(self, conn: Connection, crng: Stream):
        spec = self.spec
        n = spec.requests_per_conn
        for i in range(n):
            if conn.state in (ConnState.RESET, ConnState.REFUSED):
                self.reset += 1
                return
            request = spec.factory.build(crng, tenant_id=conn.tenant_id)
            self.fleet.deliver(conn, request)
            self.requests_sent += 1
            if spec.request_gap_mean > 0 and i < n - 1:
                yield crng.expovariate(1.0 / spec.request_gap_mean)
        if conn.state in (ConnState.RESET, ConnState.REFUSED):
            self.reset += 1
            return
        conn.client_close()


def run_shard(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one fleet instance end to end; return a picklable doc.

    Mirrors :func:`repro.check.runner.run_monitored_fleet`'s
    construction exactly — same registry streams, same instance naming
    and per-instance hash-seed derivation as :func:`build_fleet`, same
    workload spec and churn fault — scoped down to one instance.  The
    shard schedules ``payload["arrivals"]``, its slice of
    :func:`fleet_arrivals`, and counts the rest of
    ``payload["total_arrivals"]`` as foreign.
    """
    from ..check.invariants import watch
    from ..check.pcc import watch_fleet
    from ..lb.server import LBServer, NotificationMode
    from ..obs import FlightRecorder, Tracer

    shard_index = payload["shard_index"]
    n_instances = payload["n_instances"]
    seed = payload["seed"]
    duration = payload["duration"]
    ingress_policy = payload.get("ingress", "ecmp")
    check = payload.get("check", False)
    keep_trace = payload.get("keep_trace", False)

    # Per-shard id namespaces restart at 1 so shard output is a pure
    # function of the payload, not of whatever ran before in this
    # process (jobs=1 runs every shard in the parent).
    saved_ids = Connection._ids
    Connection._ids = itertools.count(1)
    try:
        env = Environment()
        registry = RngRegistry(seed)
        fleet_hash_seed = registry.stream("hash").randrange(2 ** 32)
        tracer = None
        recorder = None
        if keep_trace or check:
            recorder = FlightRecorder(capacity=256)
            tracer = Tracer(env, recorder=recorder, keep_events=keep_trace)
        ingress = ShardIngress(ingress_policy, fleet_hash_seed, n_instances,
                               shard_index)
        instance = LBServer(
            env, payload["n_workers"], [443], NotificationMode.HERMES,
            hash_seed=jhash_words([shard_index], fleet_hash_seed),
            name=f"lb{shard_index}", tracer=tracer)
        fleet = Fleet(env, [instance], policy=payload["policy"],
                      ingress=ingress, hash_seed=fleet_hash_seed,
                      tracer=tracer)
        fleet.start()
        pcc = None
        monitors = []
        if check:
            pcc = watch_fleet(fleet)
            monitors = [watch(instance)]
        gen = _ShardedTrafficGenerator(
            env, fleet, payload["arrivals"], payload["total_arrivals"],
            fleet_spec(duration, payload["conn_rate"]))
        churn_at = payload.get("churn_at")
        if churn_at is not None:
            env.schedule_callback(
                churn_at,
                lambda: fleet.churn_backends(payload.get("churn_k", 2)))
        gen.start()
        env.run(until=duration)

        passes: Dict[str, int] = {}
        violations = 0
        if pcc is not None:
            passes = dict(pcc.finalize())
            for monitor in monitors:
                for name, count in monitor.finalize().items():
                    passes[name] = passes.get(name, 0) + count
            violations = len(pcc.violations)
        metrics = instance.metrics
        doc = {
            "shard_index": shard_index,
            "instance": instance.name,
            "latencies": list(metrics.request_latencies.values),
            "completed": metrics.requests_completed,
            "failed": metrics.requests_failed,
            "accepted": metrics.connections_accepted,
            "refused": metrics.connections_refused,
            "elapsed": metrics.elapsed,
            "backend_version": fleet.backend_map.version,
            "churn_events": fleet.churn_events,
            "broken_backend": fleet.broken_backend,
            "broken": fleet.broken_connections(),
            "opened": gen.opened,
            "conn_refused": gen.refused,
            "conn_reset": gen.reset,
            "requests_sent": gen.requests_sent,
            "foreign": gen.foreign,
            "pcc_violations": violations,
            "passes": passes,
            "steps": env.steps,
        }
        if keep_trace and tracer is not None:
            doc["events"] = [
                (e.seq, e.ts, e.name, e.cat, e.phase, e.worker, e.conn,
                 e.request, dict(e.fields) if e.fields else {})
                for e in tracer.events]
        return doc
    finally:
        Connection._ids = saved_ids


def merge_shards(shards: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Deterministic cross-shard reduction, in shard-index order.

    The metric fields are :func:`repro.fleet.fleet.reduce_metrics` over
    the shard docs — the same reduction the unsharded fleet runs.
    PCC/invariant verdict counters sum per key; trace events concatenate
    in shard order, then stable-sort by timestamp so equal-time events
    keep shard order.
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
    if any("events" in doc for doc in shards):
        events: List[tuple] = []
        for doc in shards:
            events.extend(tuple(e) for e in doc.get("events", ()))
        events.sort(key=lambda e: e[1])  # stable: ts, then shard order
        merged["trace_events"] = len(events)
        merged["events"] = events
    return merged


def run_sharded_fleet(policy: str = "stateless", n_instances: int = 4,
                      n_workers: int = 2, seed: int = 31,
                      duration: float = 1.5, conn_rate: float = 150.0,
                      churn_at: Optional[float] = 0.6, churn_k: int = 2,
                      ingress: str = "ecmp", jobs: int = 1,
                      check: bool = False,
                      keep_trace: bool = False) -> Dict[str, Any]:
    """Run a fleet as ``n_instances`` independent shards, then merge.

    ``jobs=1`` runs every shard serially in this process; ``jobs>1``
    fans shards across a :class:`ProcessPoolExecutor`.  Output is
    byte-identical either way (slot-indexed collection, enumeration-
    order merge).  The arrival stream is drawn once, here, and each
    shard's payload carries only its own slice.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    FleetPolicy(policy)  # validate early, before any worker spawns
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
            "keep_trace": keep_trace,
            "arrivals": slices[index],
            "total_arrivals": total,
        }
        for index in range(n_instances)
    ]
    results: List[Optional[Dict[str, Any]]] = [None] * n_instances
    if jobs == 1 or n_instances == 1:
        for index, payload in enumerate(payloads):
            results[index] = run_shard(payload)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, n_instances)) as pool:
            futures = {pool.submit(run_shard, payload): index
                       for index, payload in enumerate(payloads)}
            for future, index in futures.items():
                results[index] = future.result()
    merged = merge_shards([doc for doc in results if doc is not None])
    merged["policy"] = policy
    merged["ingress"] = ingress
    merged["seed"] = seed
    merged["jobs_invariant"] = True  # byte-identical for any --jobs N
    return merged
