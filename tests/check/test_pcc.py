"""The PCC invariant drill: planted lookup corruption must be caught.

The checked fleet run (``run_fleet(check=True)``) is green under
every *legal* fault — churn and instance crash break connections with a
recorded reason, never silently.  ``corrupt_lookup=True`` plants the
illegal one: mid-churn, the version-0 backend table is tampered with, so
live connections stamped under it re-resolve to a different backend.
The :class:`~repro.check.PccMonitor` must raise, with a flight-recorder
dump attached.
"""

import pytest

from repro.check import InvariantViolation, PccMonitor, watch_fleet
from repro.fleet import build_fleet, fleet_spec, run_fleet


class TestCleanRuns:
    def test_stateless_churn_is_green(self):
        run = run_fleet(check=True, policy="stateless", duration=1.2)
        pcc, passes = run.pcc, run.passes
        assert not pcc.violations
        assert passes["pcc"] > 0
        assert passes["pcc_routing"] > 0
        assert pcc.ticks > 1
        # The fleet's own invariant monitors ran alongside, one per
        # instance.
        assert [m.server for m in pcc.instance_monitors] == \
            pcc.fleet.instances
        assert passes.get("conservation", 0) > 0
        # And the live differential oracles, as on the sharded path.
        assert sum(run.comparisons.values()) > 0

    def test_stateful_crash_is_green(self):
        # Stateful failover *breaks* connections, but legally: the
        # records carry broken_reason, so PCC has nothing to flag.
        run = run_fleet(check=True, policy="stateful", duration=1.2,
                        crash_at=0.9)
        assert run.doc["broken_instance"] > 0
        assert not run.pcc.violations


class TestCorruptionDrill:
    def test_tampered_lookup_raises_with_flight_dump(self):
        with pytest.raises(InvariantViolation) as excinfo:
            run_fleet(check=True, policy="stateless", duration=1.2,
                      corrupt_lookup=True)
        violation = excinfo.value
        assert violation.name == "pcc"
        assert "backend changed mid-life" in str(violation)
        assert violation.flight_events  # the dump is attached
        assert any(e.get("name", "").startswith("fleet.")
                   for e in violation.flight_events)

    def test_collect_mode_records_instead_of_raising(self):
        run = run_fleet(check=True, policy="stateless", duration=1.2,
                        corrupt_lookup=True, raise_on_violation=False)
        assert run.pcc.violations
        assert all(v.name == "pcc" for v in run.pcc.violations)
        assert run.doc["pcc_violations"] == len(run.pcc.violations)


class TestMonitorLifecycle:
    def test_double_attach_rejected(self):
        pcc = run_fleet(check=True, policy="stateless", duration=0.6,
                        churn_at=0.3).pcc
        fresh = PccMonitor(pcc.fleet).attach()
        with pytest.raises(RuntimeError, match="already attached"):
            fresh.attach()

    def test_finalize_detaches(self):
        pcc = run_fleet(check=True, policy="stateless", duration=0.6,
                        churn_at=0.3).pcc
        assert pcc._armed is False


def _watched_fleet(log, fail=None):
    """A short fleet run armed by :func:`watch_fleet`; each monitor's
    final check logs its index (0 is PCC), and index ``fail`` raises."""
    cell = build_fleet(fleet_spec(0.3, 150.0), "hermes", 31, n_instances=3,
                       n_workers=2, policy="stateless", ingress="ecmp")
    pcc = watch_fleet(cell.server)
    cell.run(until=0.3)
    for index, monitor in enumerate([pcc] + pcc.instance_monitors):
        real = monitor.check_now

        def check_now(index=index, real=real):
            log.append(index)
            if index == fail:
                raise InvariantViolation("planted", "final check failed")
            real()

        monitor.check_now = check_now
    return pcc


class TestFinalizeMonitors:
    def test_pcc_first_then_instances_summed_per_name(self):
        log = []
        pcc = _watched_fleet(log)
        passes = pcc.finalize()
        assert log == [0, 1, 2, 3]
        monitors = [pcc] + pcc.instance_monitors
        names = list(pcc.checks_passed) + list(
            pcc.instance_monitors[0].checks_passed)
        assert list(passes) == names
        assert passes == {
            name: sum(m.checks_passed.get(name, 0) for m in monitors)
            for name in names}
        assert passes["conservation"] > pcc.instance_monitors[0] \
            .checks_passed["conservation"]

    def test_partial_counts_survive_a_raise(self):
        log = []
        pcc = _watched_fleet(log, fail=2)
        passes = {}
        with pytest.raises(InvariantViolation, match="planted"):
            pcc.finalize(passes)
        assert log == [0, 1, 2]
        first = pcc.instance_monitors[0]
        assert passes == dict(pcc.checks_passed, **first.checks_passed)
