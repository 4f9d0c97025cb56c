"""Per-connection-consistency (PCC) monitor for a live fleet.

The fleet's correctness bar under churn (ISSUE 7 / Concury, Technion
LB-scalability): **no connection changes backend mid-life** unless its
instance or its backend died.  The fleet keeps a
:class:`~repro.fleet.FlowRecord` per client connection — the backend and
mapping version it was pinned to at birth; the monitor periodically
re-resolves every *live* record through the fleet's lookup policy and
demands the answer still equals the recorded pin.

Legal exceptions are encoded in the ledger itself, not in the check: a
record whose backend or instance died carries ``broken_reason`` (its
connection was reset), so it leaves the live set.  A *migrated* record
(stateless failover) stays in the live set on purpose — surviving an
instance crash must NOT change the backend, and the recomputation proves
it.

A second check audits routing agreement: the fleet's per-connection
instance map must name the same instance the flow record does (the ingress
tier and the PCC ledger can't disagree about ownership).

Like :class:`~repro.check.InvariantMonitor`, the monitor only reads: an
unmonitored run is bit-identical, and a violation raises
:class:`~repro.check.InvariantViolation` with a flight-recorder dump
attached when the fleet's tracer has a recorder.

:func:`watch_fleet` is the one way to arm a checked fleet run: it
attaches the PCC monitor, then one invariant monitor per instance, and
:meth:`PccMonitor.finalize` finalizes all of them in that order.
:func:`corrupt_lookup` is the drill the PCC monitor must catch.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .invariants import InvariantMonitor, InvariantViolation, tally, watch

__all__ = ["PccMonitor", "corrupt_lookup", "watch_fleet"]


class PccMonitor:
    """Re-derives the fleet's PCC contract from live state, per tick."""

    def __init__(self, fleet, raise_on_violation: bool = True):
        self.fleet = fleet
        self.env = fleet.env
        self.interval = fleet.instances[0].config.epoll_timeout
        self.recorder = (fleet.tracer.recorder
                         if fleet.tracer is not None else None)
        self.raise_on_violation = raise_on_violation
        #: The per-instance monitors :func:`watch_fleet` armed with it,
        #: finalized after this one, in instance order.
        self.instance_monitors: List[InvariantMonitor] = []
        self.violations: List[InvariantViolation] = []
        self.checks_passed: Dict[str, int] = {}
        self.ticks = 0
        self._armed = False

    # -- lifecycle -------------------------------------------------------
    def attach(self) -> "PccMonitor":
        if self._armed:
            raise RuntimeError("monitor already attached")
        self._armed = True
        self.env.schedule_callback(self.interval, self._tick)
        if self.fleet.tracer is not None:
            self.fleet.tracer.instant("check.arm", "check",
                                      monitor="pcc", interval=self.interval)
        return self

    def detach(self) -> None:
        self._armed = False

    def _tick(self) -> None:
        if not self._armed:
            return
        self.check_now()
        self.env.schedule_callback(self.interval, self._tick)

    # -- violation plumbing ----------------------------------------------
    def _violate(self, name: str, message: str) -> None:
        dump = self.recorder.dump() if self.recorder is not None else None
        violation = InvariantViolation(name, message, flight_events=dump)
        self.violations.append(violation)
        if self.fleet.tracer is not None:
            self.fleet.tracer.instant("check.violation", "check",
                                      invariant=name, message=message)
        if self.raise_on_violation:
            raise violation

    def _passed(self, name: str) -> None:
        self.checks_passed[name] = self.checks_passed.get(name, 0) + 1

    # -- the invariants ---------------------------------------------------
    def check_now(self) -> None:
        self.ticks += 1
        self._check_pcc()
        self._check_routing()

    def _check_pcc(self) -> None:
        fleet = self.fleet
        for record in fleet.live_records():
            expected = fleet.expected_backend(record)
            if expected is None:
                self._violate(
                    "pcc",
                    f"conn {record.conn.id} on {record.instance_name}: "
                    f"lookup lost the mapping of a live connection "
                    f"(policy {fleet.policy.value})")
                return
            if expected != record.backend:
                self._violate(
                    "pcc",
                    f"conn {record.conn.id} on {record.instance_name}: "
                    f"backend changed mid-life {record.backend} -> "
                    f"{expected} (version {record.version}, no instance "
                    f"or backend death recorded)")
                return
        self._passed("pcc")

    def _check_routing(self) -> None:
        fleet = self.fleet
        for record in fleet.live_records():
            device = fleet.instance_for(record.conn)
            if device is None:
                continue  # connection refused before the fleet pinned it
            if device.name != record.instance_name:
                self._violate(
                    "pcc_routing",
                    f"conn {record.conn.id}: fleet routes to "
                    f"{device.name} but the flow record says "
                    f"{record.instance_name}")
                return
        self._passed("pcc_routing")

    # -- end-of-run -------------------------------------------------------
    def finalize(self, passes: Optional[Dict[str, int]] = None
                 ) -> Dict[str, int]:
        """One last evaluation and detach, then each instance monitor's.

        Sums every monitor's pass counters per name into ``passes`` (a
        new dict by default) and returns it.  Each monitor's counts land
        before the next one finalizes, so when a final check raises,
        ``passes`` keeps the counts of the monitors finalized before it.
        """
        self.check_now()
        self.detach()
        passes = tally(passes, self.checks_passed)
        for monitor in self.instance_monitors:
            monitor.finalize(passes)
        return passes


def watch_fleet(fleet, raise_on_violation: bool = True) -> PccMonitor:
    """Attach a :class:`PccMonitor` to ``fleet``, then an
    :class:`~repro.check.InvariantMonitor` to each of its instances;
    return the PCC monitor, which holds the rest."""
    pcc = PccMonitor(fleet, raise_on_violation).attach()
    pcc.instance_monitors = [watch(instance, raise_on_violation)
                             for instance in fleet.instances]
    return pcc


def corrupt_lookup(fleet) -> None:
    """The ``pcc`` drill: every later backend-map update also tampers
    with the *version-0* table, so live connections stamped under it
    re-resolve to a different backend — the silent state corruption
    Concury's versioning guards against."""
    backend_map = fleet.backend_map
    real_update = backend_map.update

    def corrupted_update(backends):
        version = real_update(backends)
        backend_map._tables[0] = [b + 1000 for b in backend_map._tables[0]]
        return version

    backend_map.update = corrupted_update
