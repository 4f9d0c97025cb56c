"""End-to-end tracing of real simulation runs.

Covers the subsystem's two contracts: (1) tracing observes everything the
paper's mechanisms do — reuseport selection, wait-queue wakeups, epoll
dispatch, cascading-filter decisions, request service — and (2) tracing
never perturbs the simulation: results are identical with it on or off.
The same holds for the other hooks a cell can carry, an empty fault plan,
a lossless Nic and the invariant monitors, whose only footprint is their
own ticks.
"""

import functools
import json

import pytest

from repro.cell import build_cell
from repro.check import watch
from repro.experiments.common import run_case_cell
from repro.experiments.sec7 import run_crash_blast
from repro.faults import FaultPlan
from repro.kernel.nic import Nic
from repro.lb.server import NotificationMode
from repro.obs import (FlightRecorder, Tracer, build_timelines,
                       summarize_timelines, to_chrome_trace)
from repro.workloads.cases import build_case_workload


@pytest.fixture(scope="module")
def hermes_trace():
    """One traced Hermes run shared by the assertions below."""
    tracer = Tracer()
    result = run_case_cell(NotificationMode.HERMES, "case2", "medium",
                           n_workers=4, duration=0.5, seed=7, tracer=tracer)
    return tracer, result


class TestCoverage:
    REQUIRED = ("reuseport.select", "wait.wake", "epoll.dispatch",
                "sched.filter", "sched.decision", "request.service",
                "request.arrival", "request.complete", "conn.accept")

    def test_all_required_span_names_present(self, hermes_trace):
        tracer, _ = hermes_trace
        names = {e.name for e in tracer.events}
        for required in self.REQUIRED:
            assert required in names, f"missing {required}"

    def test_filter_stages_carry_drop_reasons(self, hermes_trace):
        tracer, _ = hermes_trace
        stages = [e for e in tracer.events if e.name == "sched.filter"]
        assert stages
        seen = {e.fields["stage"] for e in stages}
        assert seen <= {"time", "conn", "event", "capacity"}
        for e in stages:
            assert e.fields["before"] >= e.fields["after"]
            dropped = e.fields["dropped"]
            if dropped:
                assert isinstance(e.fields["reason"], str)
            else:
                assert e.fields["reason"] is None

    def test_reuseport_selection_pairs_and_attributes(self, hermes_trace):
        tracer, _ = hermes_trace
        selects = [e for e in tracer.events if e.name == "reuseport.select"]
        begins = [e for e in selects if e.phase == "B"]
        ends = [e for e in selects if e.phase == "E"]
        assert begins and len(begins) == len(ends)
        assert all(e.fields["via"] in ("program", "hash") for e in ends)
        # The SYN path runs under a conn scope, so selection events carry
        # the connection id even though the kernel layer never sees it.
        assert all(e.conn is not None for e in begins)

    def test_wait_wake_spans_balanced(self, hermes_trace):
        tracer, _ = hermes_trace
        wakes = [e for e in tracer.events if e.name == "wait.wake"]
        assert wakes
        assert (len([e for e in wakes if e.phase == "B"])
                == len([e for e in wakes if e.phase == "E"]))

    def test_service_spans_balanced_and_timeline_count(self, hermes_trace):
        tracer, result = hermes_trace
        timelines = build_timelines(tracer.events)
        assert len(timelines) == result.completed

    def test_critical_path_sums_to_latency(self, hermes_trace):
        tracer, _ = hermes_trace
        timelines = build_timelines(tracer.events)
        assert timelines
        for tl in timelines:
            assert tl.kernel_wait >= -1e-12
            assert tl.service_time > 0
            assert abs(tl.kernel_wait + tl.queue_wait + tl.service_time
                       - tl.latency) < 1e-9

    def test_summary_matches_metrics_avg(self, hermes_trace):
        tracer, result = hermes_trace
        summary = summarize_timelines(build_timelines(tracer.events))
        assert summary["count"] == result.completed
        # The reassembled mean latency is the same quantity the device
        # metrics report (both request-arrival -> completion).
        assert summary["avg_latency"] * 1e3 == pytest.approx(
            result.avg_ms, rel=1e-9)

    def test_chrome_export_of_real_run_serializes(self, hermes_trace):
        tracer, _ = hermes_trace
        document = to_chrome_trace(tracer.events)
        json.dumps(document)
        assert len(document["traceEvents"]) > len(tracer.events)


@functools.lru_cache(maxsize=None)
def _hooked_run(mode, hook):
    """One small cell built by ``build_cell`` with ``hook`` (None, or one
    of "tracer", "faults", "nic", "watch") attached.  Returns the result,
    the engine steps and the monitor's ticks."""
    spec = build_case_workload("case2", "medium", n_workers=4, duration=0.5)
    options = {"tracer": {"tracer": Tracer()},
               "faults": {"faults": FaultPlan()},
               "nic": {"nic": Nic(n_queues=4)}}.get(hook, {})
    cell = build_cell(spec, mode, 21, n_workers=4, **options)
    monitor = watch(cell.server) if hook == "watch" else None
    cell.run(until=spec.duration + 0.5)
    server = cell.server
    result = dict(server.metrics.summary(),
                  refused=server.metrics.connections_refused,
                  cpu_utils=server.metrics.cpu_utilizations(),
                  accepted=[w.accepted
                            for w in server.metrics.workers.values()])
    return result, cell.env.steps, monitor.ticks if monitor else 0


class TestNonPerturbation:
    @pytest.mark.parametrize("hook", ["tracer", "faults", "nic", "watch"])
    @pytest.mark.parametrize("mode", [NotificationMode.HERMES,
                                      NotificationMode.EXCLUSIVE,
                                      NotificationMode.REUSEPORT])
    def test_results_identical_with_tracing_on(self, mode, hook):
        """A tracer, an empty fault plan, a lossless Nic (what ``run
        --faults`` attaches) and invariant monitors observe only: the
        result is unchanged, and the only extra engine steps are the
        monitors' ticks."""
        plain, plain_steps, _ = _hooked_run(mode, None)
        hooked, steps, ticks = _hooked_run(mode, hook)
        assert hooked == plain
        assert (ticks > 0) == (hook == "watch")
        assert steps == plain_steps + ticks

    def test_traced_run_is_deterministic(self):
        # Connection ids come from a process-global counter, so normalize
        # them to first-appearance order before comparing runs.
        runs = []
        for _ in range(2):
            tracer = Tracer()
            run_case_cell(NotificationMode.HERMES, "case2", "medium",
                          n_workers=4, duration=0.4, seed=5, tracer=tracer)
            conn_ids = {}
            normalized = []
            for e in tracer.events:
                conn = (None if e.conn is None
                        else conn_ids.setdefault(e.conn, len(conn_ids)))
                normalized.append((e.seq, e.ts, e.name, e.phase, e.worker,
                                   conn, e.request))
            runs.append(normalized)
        assert runs[0] == runs[1]


class TestFlightRecorderScenario:
    def test_sec7_crash_dumps_flight_recorder(self):
        recorder = FlightRecorder(capacity=256)
        result = run_crash_blast(NotificationMode.HERMES, n_workers=4,
                                 n_connections=100,
                                 flight_recorder=recorder)
        # Sustained load overflowed the ring: exactly last-N retained.
        assert recorder.total_recorded > 256
        assert len(recorder) == 256
        assert result.flight_events is not None
        assert len(result.flight_events) == 256
        # The dump ends with the crash post-mortem itself.
        names = [record["name"] for record in result.flight_events]
        assert "worker.crash" in names
        assert names[-1] == "worker.cleanup"
        for record in result.flight_events:
            json.dumps(record)

    def test_flight_recorder_does_not_change_blast_result(self):
        plain = run_crash_blast(NotificationMode.HERMES, n_workers=4,
                                n_connections=100)
        traced = run_crash_blast(NotificationMode.HERMES, n_workers=4,
                                 n_connections=100,
                                 flight_recorder=FlightRecorder(capacity=64))
        assert plain.total_connections == traced.total_connections
        assert plain.connections_killed == traced.connections_killed
        assert plain.blast_fraction == traced.blast_fraction
