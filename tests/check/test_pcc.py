"""The PCC invariant drill: planted lookup corruption must be caught.

The monitored fleet scenario (``run_monitored_fleet``) is green under
every *legal* fault — churn and instance crash break connections with a
recorded reason, never silently.  ``corrupt_lookup=True`` plants the
illegal one: mid-churn, the version-0 backend table is tampered with, so
live connections stamped under it re-resolve to a different backend.
The :class:`~repro.check.PccMonitor` must raise, with a flight-recorder
dump attached.
"""

import pytest

from repro.check import InvariantViolation, PccMonitor, finalize_monitors
from repro.check.runner import run_monitored_fleet


class TestCleanRuns:
    def test_stateless_churn_is_green(self):
        pcc, passes, summary = run_monitored_fleet(
            policy="stateless", duration=1.2)
        assert not pcc.violations
        assert passes["pcc"] > 0
        assert passes["pcc_routing"] > 0
        assert pcc.ticks > 1
        # The fleet's own invariant monitors ran alongside.
        assert passes.get("conservation", 0) > 0

    def test_stateful_crash_is_green(self):
        # Stateful failover *breaks* connections, but legally: the
        # records carry broken_reason, so PCC has nothing to flag.
        pcc, _passes, summary = run_monitored_fleet(
            policy="stateful", duration=1.2, crash_at=0.9)
        assert summary["broken_instance"] > 0
        assert not pcc.violations


class TestCorruptionDrill:
    def test_tampered_lookup_raises_with_flight_dump(self):
        with pytest.raises(InvariantViolation) as excinfo:
            run_monitored_fleet(policy="stateless", duration=1.2,
                                corrupt_lookup=True)
        violation = excinfo.value
        assert violation.name == "pcc"
        assert "backend changed mid-life" in str(violation)
        assert violation.flight_events  # the dump is attached
        assert any(e.get("name", "").startswith("fleet.")
                   for e in violation.flight_events)

    def test_collect_mode_records_instead_of_raising(self):
        pcc, _passes, summary = run_monitored_fleet(
            policy="stateless", duration=1.2, corrupt_lookup=True,
            raise_on_violation=False)
        assert pcc.violations
        assert all(v.name == "pcc" for v in pcc.violations)
        assert summary["pcc_violations"] == len(pcc.violations)


class TestMonitorLifecycle:
    def test_double_attach_rejected(self):
        pcc, _passes, _summary = run_monitored_fleet(
            policy="stateless", duration=0.6, churn_at=0.3)
        fresh = PccMonitor(pcc.fleet).attach()
        with pytest.raises(RuntimeError, match="already attached"):
            fresh.attach()

    def test_finalize_detaches(self):
        pcc, _passes, _summary = run_monitored_fleet(
            policy="stateless", duration=0.6, churn_at=0.3)
        assert pcc._armed is False


class _Finalizes:
    def __init__(self, log, name, counts, error=None):
        self.log, self.name, self.counts, self.error = log, name, counts, error

    def finalize(self):
        self.log.append(self.name)
        if self.error is not None:
            raise self.error
        return dict(self.counts)


class TestFinalizeMonitors:
    def test_pcc_first_then_instances_summed_per_name(self):
        log = []
        pcc = _Finalizes(log, "pcc", {"pcc": 2, "shared": 1})
        monitors = [_Finalizes(log, "a", {"shared": 3, "conservation": 4}),
                    _Finalizes(log, "b", {"shared": 5})]
        passes = finalize_monitors(pcc, monitors)
        assert log == ["pcc", "a", "b"]
        assert passes == {"pcc": 2, "shared": 9, "conservation": 4}
        assert list(passes) == ["pcc", "shared", "conservation"]

    def test_no_pcc_and_partial_counts_survive_a_raise(self):
        log = []
        passes = {}
        monitors = [_Finalizes(log, "a", {"conservation": 4}),
                    _Finalizes(log, "b", {}, InvariantViolation("x", "y")),
                    _Finalizes(log, "c", {"conservation": 1})]
        with pytest.raises(InvariantViolation):
            finalize_monitors(None, monitors, passes)
        assert log == ["a", "b"]
        assert passes == {"conservation": 4}
