"""The fault injector: arms a :class:`FaultPlan` against a running device.

One uniform injection path subsumes the previously ad-hoc hooks
(``LBServer.crash_worker`` scheduled by hand, the ``sec7`` inline crash):
the injector resolves each :class:`FaultSpec` against the live stack,
schedules its occurrences on the sim clock, fires them, and clears them —
emitting ``fault.arm`` / ``fault.fire`` / ``fault.clear`` events into the
:mod:`repro.obs` tracer and keeping a structured ``log`` either way.  Crash faults additionally capture a flight-recorder
dump right after socket cleanup (the §7 post-mortem workflow) when the
tracer carries a recorder.

Determinism contract:

- An **empty plan arms nothing**: no callbacks are scheduled, no RNG
  stream is created, no state is touched.  A run with an armed empty
  injector is bit-identical to a run without one.
- All randomness (``target="random"``, ``jitter``, torn reads, NIC loss)
  draws from dedicated :class:`~repro.sim.rng.RngRegistry` streams derived
  from the plan seed, never from workload streams, so identical
  plan + seed reproduces identical results and the workload the faults
  disturb is the same traffic an unfaulted run sees.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..obs.trace import CAT_FAULT
from ..sim.engine import Environment
from ..sim.rng import RngRegistry, Stream
from .plan import FLEET_KINDS, FaultKind, FaultPlan, FaultSpec

__all__ = ["FaultInjector", "inject_hang"]


def inject_hang(worker, duration: float, tracer=None) -> None:
    """The one hang-injection primitive: block ``worker``'s next event-loop
    iteration for ``duration`` seconds of CPU.

    ``LBServer.hang_worker`` routes through here, as does the injector's
    ``worker_hang`` kind.
    """
    if duration < 0:
        raise ValueError(f"hang duration must be >= 0, got {duration}")
    worker._forced_hang += duration
    if tracer is not None:
        tracer.instant("fault.fire", CAT_FAULT, worker=worker.worker_id,
                       kind=FaultKind.WORKER_HANG.value, duration=duration)


class FaultInjector:
    """Arms one :class:`FaultPlan` against one :class:`~repro.lb.LBServer`.

    Parameters
    ----------
    env, server:
        The simulation environment and the device under test.
    plan:
        The fault schedule.  May be empty (see the determinism contract).
    registry:
        Optional :class:`RngRegistry` for the plan's random draws; defaults
        to ``RngRegistry(plan.seed)``, created lazily on first need.
    tracer:
        Optional :class:`~repro.obs.Tracer`; defaults to the server's.
    backend:
        Optional :class:`~repro.lb.backend.BackendPool` that backend
        brownout/blackout faults act on.
    fleet:
        Optional :class:`~repro.fleet.Fleet` that fleet-scope kinds
        (``instance_crash``/``instance_drain``/``backend_churn``) act on.
        When a plan holds only fleet-scope faults, ``server`` may be None.
    """

    def __init__(self, env: Environment, server, plan: FaultPlan,
                 registry: Optional[RngRegistry] = None, tracer=None,
                 backend=None, fleet=None):
        self.env = env
        self.server = server
        self.plan = plan
        self.fleet = fleet
        if tracer is None and fleet is not None:
            tracer = fleet.tracer
        self.tracer = tracer if tracer is not None \
            else getattr(server, "tracer", None)
        self.backend = backend
        self._registry = registry
        #: Structured record of every arm/fire/clear, tracer or not.
        self.log: List[Dict[str, Any]] = []
        #: Flight-recorder dumps captured after crash cleanups.
        self.crash_dumps: List[List[dict]] = []
        self.faults_fired = 0
        self.faults_cleared = 0
        self._armed = False
        # Saved pre-fault state for restorable kinds, keyed by spec index.
        self._saved: Dict[int, Any] = {}

    # -- plumbing ---------------------------------------------------------
    def _rng(self, index: int) -> Stream:
        if self._registry is None:
            self._registry = RngRegistry(self.plan.seed)
        return self._registry.stream(f"fault:{index}")

    def _emit(self, phase: str, spec: FaultSpec, index: int,
              worker: Optional[int] = None, **fields: Any) -> None:
        record = {"event": phase, "kind": spec.kind.value, "index": index,
                  "t": self.env.now, "worker": worker}
        record.update(fields)
        self.log.append(record)
        if self.tracer is not None:
            self.tracer.instant(f"fault.{phase}", CAT_FAULT, worker=worker,
                                kind=spec.kind.value, index=index, **fields)

    def _validate(self, spec: FaultSpec) -> None:
        """Fail fast at arm time when the stack can't host the fault."""
        if spec.kind in FLEET_KINDS:
            if self.fleet is None:
                raise ValueError(f"{spec.kind.value} fault needs a fleet")
            if isinstance(spec.target, int) and not \
                    0 <= spec.target < len(self.fleet.cluster.devices):
                raise ValueError(
                    f"target instance {spec.target} out of range")
            return
        if self.server is None:
            raise ValueError(
                f"{spec.kind.value} fault needs a server (fleet-only "
                f"injector arms only fleet-scope kinds)")
        if spec.kind is FaultKind.NIC_LOSS \
                and self.server.stack.nic is None:
            raise ValueError("nic_loss fault needs a server built with a Nic")
        if spec.kind in (FaultKind.BACKEND_BROWNOUT,
                         FaultKind.BACKEND_BLACKOUT) and self.backend is None:
            raise ValueError(f"{spec.kind.value} fault needs a backend pool")
        if spec.kind in (FaultKind.WST_FREEZE, FaultKind.WST_TORN_BURST,
                         FaultKind.BITMAP_SYNC_LOSS) \
                and not getattr(self.server, "groups", None):
            raise ValueError(
                f"{spec.kind.value} fault needs HERMES mode (WST/eBPF state)")
        if isinstance(spec.target, int) \
                and not 0 <= spec.target < self.server.n_workers:
            raise ValueError(f"target worker {spec.target} out of range")
        if spec.kind is FaultKind.BACKEND_BLACKOUT \
                and not 0 <= spec.server_id < len(self.backend.servers):
            raise ValueError(f"server_id {spec.server_id} out of range")

    def arm(self) -> "FaultInjector":
        """Schedule every occurrence of every spec.  Idempotence guard:
        arming twice would double-fire, so it raises."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        if self.plan.empty:
            return self  # nothing scheduled, nothing drawn, nothing logged
        for index, spec in enumerate(self.plan.faults):
            self._validate(spec)
            times = list(spec.fire_times())
            if spec.jitter > 0:
                rng = self._rng(index)
                times = [max(0.0, t + rng.uniform(-spec.jitter, spec.jitter))
                         for t in times]
            self._emit("arm", spec, index, occurrences=len(times),
                       first_at=times[0])
            for occurrence, when in enumerate(times):
                delay = max(0.0, when - self.env.now)
                self.env.schedule_callback(
                    delay,
                    lambda s=spec, i=index, o=occurrence: self._fire(s, i, o))
        return self

    # -- victim resolution -------------------------------------------------
    def _resolve_worker(self, spec: FaultSpec, index: int):
        target = spec.target if spec.target is not None else "busiest"
        workers = self.server.workers
        if isinstance(target, int):
            return workers[target]
        if target == "busiest":
            return max(workers, key=lambda w: (len(w.conns), -w.worker_id))
        alive = [w for w in workers if w.is_alive] or list(workers)
        return alive[self._rng(index).randrange(len(alive))]

    def _resolve_instance(self, spec: FaultSpec, index: int) -> int:
        """Victim LB instance *index* for fleet-scope kinds."""
        target = spec.target if spec.target is not None else "busiest"
        devices = self.fleet.cluster.devices
        if isinstance(target, int):
            return target
        indexed = list(enumerate(devices))
        if target == "busiest":
            chosen = max(indexed,
                         key=lambda pair: (sum(len(w.conns)
                                               for w in pair[1].workers),
                                           -pair[0]))
            return chosen[0]
        up = [i for i, d in indexed if d.alive_workers] \
            or [i for i, _d in indexed]
        return up[self._rng(index).randrange(len(up))]

    # -- firing -----------------------------------------------------------
    def _fire(self, spec: FaultSpec, index: int, occurrence: int) -> None:
        self.faults_fired += 1
        handler = {
            FaultKind.WORKER_HANG: self._fire_hang,
            FaultKind.WORKER_CRASH: self._fire_crash,
            FaultKind.SLOW_WORKER: self._fire_slow,
            FaultKind.BACKEND_BROWNOUT: self._fire_brownout,
            FaultKind.BACKEND_BLACKOUT: self._fire_blackout,
            FaultKind.WST_FREEZE: self._fire_wst_freeze,
            FaultKind.WST_TORN_BURST: self._fire_torn_burst,
            FaultKind.BITMAP_SYNC_LOSS: self._fire_sync_loss,
            FaultKind.NIC_LOSS: self._fire_nic_loss,
            FaultKind.INSTANCE_CRASH: self._fire_instance_crash,
            FaultKind.INSTANCE_DRAIN: self._fire_instance_drain,
            FaultKind.BACKEND_CHURN: self._fire_backend_churn,
        }[spec.kind]
        handler(spec, index, occurrence)

    def _schedule_clear(self, spec: FaultSpec, index: int,
                        restore) -> None:
        def clear():
            restore()
            self.faults_cleared += 1
            self._emit("clear", spec, index)

        self.env.schedule_callback(spec.duration, clear)

    def _blast_stats(self, worker) -> Dict[str, int]:
        # Client connections only: probe streams (negative tenant ids) die
        # with the worker but are re-pinned by their prober, so they are
        # not part of the blast radius.
        #
        # Blast radius is *affected connections*, not owned connections:
        # a spliced flow (``conn.splice``, repro.splice) is forwarded
        # kernel-side and keeps completing while its worker's wakeup path
        # is stalled, so wakeup-centric faults (hang / slow / crash until
        # detection) do not put it at risk.  Modes without a splice path
        # have no spliced connections, so their accounting is unchanged.
        def clients(w) -> int:
            return sum(1 for conn in w.conns.values()
                       if conn.tenant_id >= 0)

        def wakeup_dependent(w) -> int:
            return sum(1 for conn in w.conns.values()
                       if conn.tenant_id >= 0 and conn.splice is None)

        return {"conns_at_risk": wakeup_dependent(worker),
                "total_conns": sum(clients(w)
                                   for w in self.server.workers)}

    def _fire_hang(self, spec: FaultSpec, index: int,
                   occurrence: int) -> None:
        worker = self._resolve_worker(spec, index)
        inject_hang(worker, spec.duration)
        self._emit("fire", spec, index, worker=worker.worker_id,
                   occurrence=occurrence, duration=spec.duration,
                   **self._blast_stats(worker))

    def _fire_crash(self, spec: FaultSpec, index: int,
                    occurrence: int) -> None:
        worker = self._resolve_worker(spec, index)
        if not worker.is_alive:
            self._emit("fire", spec, index, worker=worker.worker_id,
                       occurrence=occurrence, skipped="already crashed")
            return
        wid = worker.worker_id
        stats = self._blast_stats(worker)
        # Crash without scheduling cleanup here: detection is ours so the
        # blast radius lands in the log (and the flight dump fires then).
        self.server.crash_worker(wid, cleanup_delay=None)
        self._emit("fire", spec, index, worker=wid, occurrence=occurrence,
                   detect_delay=spec.detect_delay, **stats)
        if spec.detect_delay is None:
            return

        def detect():
            blast = self.server.detect_and_clean_worker(wid)
            recorder = getattr(self.tracer, "recorder", None)
            if recorder is not None:
                self.crash_dumps.append(recorder.dump())
            self.faults_cleared += 1
            self._emit("clear", spec, index, worker=wid, blast=blast,
                       total_conns=stats["total_conns"],
                       flight_dumped=recorder is not None)

        self.env.schedule_callback(spec.detect_delay, detect)
        if spec.restart_after is not None:
            self.env.schedule_callback(
                spec.restart_after,
                lambda: self._restart(spec, index, wid))

    def _restart(self, spec: FaultSpec, index: int, wid: int) -> None:
        self.server.restart_worker(wid)
        self._emit("restart", spec, index, worker=wid)

    def _fire_slow(self, spec: FaultSpec, index: int,
                   occurrence: int) -> None:
        worker = self._resolve_worker(spec, index)
        worker.service_multiplier = spec.magnitude
        self._emit("fire", spec, index, worker=worker.worker_id,
                   occurrence=occurrence, multiplier=spec.magnitude,
                   duration=spec.duration, **self._blast_stats(worker))

        def restore():
            worker.service_multiplier = 1.0

        self._schedule_clear(spec, index, restore)

    def _fire_brownout(self, spec: FaultSpec, index: int,
                       occurrence: int) -> None:
        self.backend.set_brownout(spec.magnitude)
        self._emit("fire", spec, index, occurrence=occurrence,
                   multiplier=spec.magnitude, duration=spec.duration)
        self._schedule_clear(spec, index,
                             lambda: self.backend.set_brownout(1.0))

    def _fire_blackout(self, spec: FaultSpec, index: int,
                       occurrence: int) -> None:
        self.backend.set_server_down(spec.server_id, True)
        self._emit("fire", spec, index, occurrence=occurrence,
                   server_id=spec.server_id, duration=spec.duration)
        self._schedule_clear(
            spec, index,
            lambda: self.backend.set_server_down(spec.server_id, False))

    def _fire_wst_freeze(self, spec: FaultSpec, index: int,
                         occurrence: int) -> None:
        worker = self._resolve_worker(spec, index)
        binding = worker.hermes
        binding.group.wst.freeze(binding.rank)
        self._emit("fire", spec, index, worker=worker.worker_id,
                   occurrence=occurrence, duration=spec.duration)
        self._schedule_clear(
            spec, index, lambda: binding.group.wst.unfreeze(binding.rank))

    def _fire_torn_burst(self, spec: FaultSpec, index: int,
                         occurrence: int) -> None:
        rng = self._rng(index)
        saved = [(g.wst.atomic, g.wst.torn_read_prob, g.wst._rng)
                 for g in self.server.groups]
        self._saved[index] = saved
        for group in self.server.groups:
            group.wst.atomic = False
            group.wst.torn_read_prob = spec.magnitude
            group.wst._rng = rng
        self._emit("fire", spec, index, occurrence=occurrence,
                   torn_read_prob=spec.magnitude, duration=spec.duration)

        def restore():
            for group, (atomic, prob, old_rng) in zip(
                    self.server.groups, self._saved.pop(index)):
                group.wst.atomic = atomic
                group.wst.torn_read_prob = prob
                group.wst._rng = old_rng

        self._schedule_clear(spec, index, restore)

    def _fire_sync_loss(self, spec: FaultSpec, index: int,
                        occurrence: int) -> None:
        for group in self.server.groups:
            group.scheduler.sync_enabled = False
        self._emit("fire", spec, index, occurrence=occurrence,
                   duration=spec.duration)

        def restore():
            for group in self.server.groups:
                group.scheduler.sync_enabled = True

        self._schedule_clear(spec, index, restore)

    def _fire_nic_loss(self, spec: FaultSpec, index: int,
                       occurrence: int) -> None:
        nic = self.server.stack.nic
        nic.set_loss(spec.magnitude, self._rng(index))
        self._emit("fire", spec, index, occurrence=occurrence,
                   loss_prob=spec.magnitude, duration=spec.duration)
        self._schedule_clear(spec, index, lambda: nic.set_loss(0.0))

    # -- fleet-scope kinds -------------------------------------------------
    def _fire_instance_crash(self, spec: FaultSpec, index: int,
                             occurrence: int) -> None:
        fleet = self.fleet
        victim = self._resolve_instance(spec, index)
        instance = fleet.cluster.devices[victim]
        if not instance.alive_workers:
            self._emit("fire", spec, index, instance=instance.name,
                       occurrence=occurrence, skipped="already down")
            return
        detect_delay = (spec.detect_delay if spec.detect_delay is not None
                        else 0.005)
        conns = sum(len(w.conns) for w in instance.workers)
        migrated_before = fleet.migrated
        broken_before = fleet.broken_instance
        # The fleet schedules its own detection callback first, so at the
        # detection timestamp it has already run (callbacks are FIFO) and
        # the clear record below sees the settled migrate/break counts.
        fleet.crash_instance(victim, detect_delay=detect_delay)
        self._emit("fire", spec, index, instance=instance.name,
                   occurrence=occurrence, detect_delay=detect_delay,
                   conns_at_risk=conns)

        def clear():
            recorder = getattr(self.tracer, "recorder", None)
            if recorder is not None:
                self.crash_dumps.append(recorder.dump())
            self.faults_cleared += 1
            self._emit("clear", spec, index, instance=instance.name,
                       migrated=fleet.migrated - migrated_before,
                       broken=fleet.broken_instance - broken_before,
                       flight_dumped=recorder is not None)

        self.env.schedule_callback(detect_delay, clear)

    def _fire_instance_drain(self, spec: FaultSpec, index: int,
                             occurrence: int) -> None:
        victim = self._resolve_instance(spec, index)
        instance = self.fleet.cluster.devices[victim]
        if self.fleet.cluster.is_draining(instance):
            self._emit("fire", spec, index, instance=instance.name,
                       occurrence=occurrence, skipped="already draining")
            return
        self.fleet.drain_instance(victim)
        self._emit("fire", spec, index, instance=instance.name,
                   occurrence=occurrence)

    def _fire_backend_churn(self, spec: FaultSpec, index: int,
                            occurrence: int) -> None:
        k = int(spec.magnitude)
        broken = self.fleet.churn_backends(k)
        self._emit("fire", spec, index, occurrence=occurrence, churn=k,
                   broken=broken, version=self.fleet.backend_map.version)

    # -- introspection -----------------------------------------------------
    def fired(self, kind: Optional[FaultKind] = None) -> List[Dict[str, Any]]:
        """Fire records, optionally filtered by kind."""
        return [r for r in self.log if r["event"] == "fire"
                and (kind is None or r["kind"] == kind.value)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultInjector specs={len(self.plan)} "
                f"fired={self.faults_fired} armed={self._armed}>")
