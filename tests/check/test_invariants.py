"""Runtime invariant monitors: clean runs stay green and byte-identical;
injected corruption is caught with a post-mortem dump attached."""

import pytest

from repro.check import InvariantViolation, live_oracles, watch
from repro.check.runner import oracle_sweep, run_check, run_monitored_crash
from repro.check.golden import cell_fingerprint
from repro.experiments.common import run_case_cell
from repro.lb.server import NotificationMode


def checked_cell(mode="hermes", case="case2", n_workers=4, duration=1.0,
                 **kwargs):
    """One checked Table 3 cell at light load and seed 7."""
    return run_case_cell(NotificationMode(mode), case, "light",
                         n_workers=n_workers, duration=duration, seed=7,
                         check=True, **kwargs)


class TestCleanRuns:
    def test_table3_cell_all_invariants_green(self):
        result = checked_cell()
        assert result.completed > 0
        assert set(result.passes) >= {"clock", "conservation", "bitmap_wst",
                                      "lost_wakeup"}
        assert all(count > 0 for count in result.passes.values())
        assert sum(result.comparisons.values()) > 0

    @pytest.mark.parametrize("mode", ["exclusive", "hermes"])
    def test_sec7_crash_all_invariants_green(self, mode):
        monitor, passes, summary, _comparisons = run_monitored_crash(
            mode=mode)
        assert monitor.violations == []
        assert summary["total_connections"] > 0
        assert all(count > 0 for count in passes.values())
        # The blast asymmetry the paper reports survives monitoring.
        if mode == "exclusive":
            assert summary["blast_fraction"] > 0.5
        else:
            assert summary["blast_fraction"] < 0.3

    def test_armed_monitor_is_byte_identical(self):
        """The golden claim: a checked run changes no result."""
        checked = checked_cell(n_workers=8, duration=2.0)
        unchecked = run_case_cell(NotificationMode("hermes"), "case2",
                                  "light", n_workers=8, duration=2.0, seed=7)
        assert unchecked.passes is None and unchecked.comparisons is None
        assert checked.to_doc() == unchecked.to_doc()

    @pytest.mark.pin
    def test_armed_monitor_matches_pinned_golden_cell(self, pin):
        """And the full pinned golden cell digest is reproduced while a
        separate checked run of the same cell stays green."""
        result = checked_cell(n_workers=8, duration=2.0)
        assert result.completed > 0
        pin("golden/cell", cell_fingerprint())


class TestCorruptionDrills:
    def test_corrupted_bitmap_is_caught(self):
        with pytest.raises(InvariantViolation) as excinfo:
            run_monitored_crash(corrupt_bitmap=True)
        violation = excinfo.value
        assert violation.name == "bitmap_wst"
        assert "beyond the group width" in str(violation)
        # The flight recorder dump rides along for the post-mortem.
        assert violation.flight_events
        assert all("name" in event for event in violation.flight_events)

    def test_corrupting_exclusive_mode_is_rejected(self):
        with pytest.raises(ValueError):
            run_monitored_crash(mode="exclusive", corrupt_bitmap=True)

    def test_raise_on_violation_false_collects_instead(self):
        monitor, _passes, _summary, _comparisons = run_monitored_crash(
            corrupt_bitmap=True, raise_on_violation=False)
        assert monitor.violations
        assert monitor.violations[0].name == "bitmap_wst"

    def test_conservation_violation_detected(self):
        """Cooking a worker's books trips the conservation monitor."""
        def corrupt(env, server, gen):
            # Lose one accept from the ledger at t=0.5.
            def cook():
                server.workers[0].metrics.accepted += 1
            env.schedule_callback(0.5, cook)

        with pytest.raises(InvariantViolation) as excinfo:
            checked_cell(duration=1.5, env_hook=corrupt)
        assert excinfo.value.name == "conservation"
        # A checked cell runs under a flight recorder.
        assert excinfo.value.flight_events

    def test_wst_drift_detected(self):
        """A stale WST connection column (the no-lost-update contract)
        trips the bitmap↔WST monitor."""
        def corrupt(env, server, gen):
            def drift():
                group = server.groups[0]
                group.wst._conns[0] += 5
            env.schedule_callback(0.5, drift)

        with pytest.raises(InvariantViolation) as excinfo:
            checked_cell(duration=1.5, env_hook=corrupt)
        assert excinfo.value.name == "bitmap_wst"


class TestMonitorLifecycle:
    def test_detach_unwraps_and_stops(self):
        from repro.lb.server import LBServer, NotificationMode
        from repro.sim.engine import Environment

        env = Environment()
        server = LBServer(env, n_workers=2, ports=[443],
                          mode=NotificationMode("hermes"))
        server.start()
        original = server.detect_and_clean_worker
        monitor = watch(server)
        assert server.detect_and_clean_worker != original
        monitor.detach()
        # Bound methods compare equal when self and the underlying
        # function match — the instance shadow is gone.
        assert server.detect_and_clean_worker == original
        assert "detect_and_clean_worker" not in server.__dict__
        ticks_at_detach = monitor.ticks
        env.run(until=0.1)
        assert monitor.ticks == ticks_at_detach

    def test_double_attach_rejected(self):
        from repro.lb.server import LBServer, NotificationMode
        from repro.sim.engine import Environment

        env = Environment()
        server = LBServer(env, n_workers=2, ports=[443],
                          mode=NotificationMode("hermes"))
        server.start()
        monitor = watch(server)
        with pytest.raises(RuntimeError):
            monitor.attach()


class TestRunCheck:
    def test_oracle_sweep_counts(self):
        counts = oracle_sweep(vectors=50)
        assert counts["popcount64"] == 50
        assert counts["jhash_words"] == 50

    def test_quick_gate_is_clean(self):
        report = run_check(lint=True, oracles=True, scenarios=False,
                           paths=("src",))
        assert report.ok
        assert report.lint_findings == []
        assert report.lint_suppressed > 0
        assert sum(report.oracle_comparisons.values()) > 0

    def test_live_oracles_restore_bindings(self):
        from repro.core import dispatch as _dispatch
        before = _dispatch.popcount64
        with live_oracles() as stats:
            assert _dispatch.popcount64 is not before
            _dispatch.popcount64(0b111)
        assert _dispatch.popcount64 is before
        assert stats.comparisons.get("popcount64") == 1


class TestProbePoolInvariant:
    """The prequal conservation ledger under the invariant monitor."""

    def test_prequal_run_stays_green(self):
        result = checked_cell("prequal", "case1")
        assert result.completed > 0
        assert result.passes["probe_pool"] > 0

    def test_non_prequal_device_passes_vacuously(self):
        assert checked_cell().passes["probe_pool"] > 0

    def test_corrupted_ledger_is_caught(self):
        def corrupt(env, server, gen):
            pool = server.prequal.pool

            def tamper():
                pool.issued += 7  # break issued == consumed+evicted+pooled

            env.schedule_callback(0.5, tamper)

        with pytest.raises(InvariantViolation) as excinfo:
            checked_cell("prequal", "case1", env_hook=corrupt)
        assert excinfo.value.name == "probe_pool"
