"""Tests for trace record/replay."""

import pytest

from repro.kernel import FourTuple
from repro.lb import LBServer, NotificationMode
from repro.sim import Environment
from repro.workloads import Trace, TraceReplayer


def ft(i=0):
    return FourTuple(0x0A000001 + i, 41000 + i, 0xC0A80001, 443)


def sample_trace():
    trace = Trace()
    trace.record_open(0.0, 1, ft(1))
    trace.record_request(0.1, 1, ft(1), event_times=[0.001], size=256)
    trace.record_request(0.5, 1, ft(1), event_times=[0.002])
    trace.record_close(0.8, 1, ft(1))
    trace.record_open(0.2, 2, ft(2))
    trace.record_request(0.3, 2, ft(2), event_times=[0.001])
    trace.record_close(0.9, 2, ft(2))
    return trace


class TestTrace:
    def test_duration(self):
        assert sample_trace().duration == 0.9

    def test_sorted_events(self):
        events = sample_trace().sorted_events()
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_len(self):
        assert len(sample_trace()) == 7

    def test_empty_duration(self):
        assert Trace().duration == 0.0


class TestReplay:
    def make_server(self):
        env = Environment()
        server = LBServer(env, n_workers=2, ports=[443],
                          mode=NotificationMode.REUSEPORT)
        server.start()
        return env, server

    def test_replay_at_original_rate(self):
        env, server = self.make_server()
        replayer = TraceReplayer(env, server, sample_trace(), rate=1.0)
        replayer.start()
        env.run(until=2.0)
        assert replayer.finished
        assert server.metrics.requests_completed == 3
        assert replayer.replayed == 7
        assert replayer.skipped == 0

    def test_replay_at_double_rate_compresses_time(self):
        env, server = self.make_server()
        replayer = TraceReplayer(env, server, sample_trace(), rate=2.0)
        replayer.start()
        env.run(until=0.46)  # 0.9 / 2 = 0.45 — everything already replayed
        assert replayer.finished

    def test_request_without_open_is_skipped(self):
        trace = Trace()
        trace.record_request(0.1, 99, ft(9), event_times=[0.001])
        env, server = self.make_server()
        replayer = TraceReplayer(env, server, trace)
        replayer.start()
        env.run(until=1.0)
        assert replayer.skipped == 1

    def test_invalid_rate(self):
        env, server = self.make_server()
        with pytest.raises(ValueError):
            TraceReplayer(env, server, sample_trace(), rate=0.0)

    def test_unknown_kind_raises(self):
        from repro.workloads import TraceEvent
        trace = Trace(events=[TraceEvent(0.0, "bogus", 1, ft())])
        env, server = self.make_server()
        replayer = TraceReplayer(env, server, trace)
        replayer.start()
        env.run(until=1.0)
        # The replay process failed with ValueError.
        assert not replayer._proc.ok


class Sink:
    """Minimal replay target: records connects/requests, can refuse."""

    def __init__(self, accept=True):
        self.accept = accept
        self.conns = []
        self.requests = []

    def connect(self, conn):
        if not self.accept:
            return False
        self.conns.append(conn)
        return True

    def deliver(self, conn, request):
        self.requests.append(request)


class TestAccounting:
    """Regression tests for the replay accounting fixes."""

    def test_close_after_refused_open_counts_as_skipped(self):
        trace = Trace()
        trace.record_open(0.0, 1, ft(1))
        trace.record_close(0.1, 1, ft(1))
        env = Environment()
        replayer = TraceReplayer(env, Sink(accept=False), trace)
        replayer.start()
        env.run(until=1.0)
        assert replayer.finished
        assert replayer.replayed == 0
        assert replayer.skipped == 2
        assert replayer.replayed + replayer.skipped == len(trace)

    def test_leftover_connections_drained_at_trace_end(self):
        trace = Trace()
        trace.record_open(0.0, 1, ft(1))
        trace.record_request(0.1, 1, ft(1), event_times=[0.001])
        # No close event: the recording was truncated mid-connection.
        env = Environment()
        sink = Sink()
        replayer = TraceReplayer(env, sink, trace)
        replayer.start()
        env.run(until=1.0)
        assert replayer.finished
        assert replayer.replayed == 2
        assert replayer.skipped == 0
        # The drain client-closed the leftover connection.
        assert sink.conns[0].fin_pending
        assert not replayer._conns

    def test_full_replay_accounting_invariant(self):
        env, server = TestReplay().make_server()
        replayer = TraceReplayer(env, server, sample_trace())
        replayer.start()
        env.run(until=2.0)
        assert replayer.finished
        assert replayer.replayed + replayer.skipped == len(sample_trace())

    def test_drain_against_real_server_closes_connections(self):
        trace = Trace()
        trace.record_open(0.0, 1, ft(1))
        trace.record_request(0.1, 1, ft(1), event_times=[0.001])
        env, server = TestReplay().make_server()
        replayer = TraceReplayer(env, server, trace)
        replayer.start()
        env.run(until=2.0)
        assert replayer.finished
        assert server.metrics.requests_completed == 1
        assert not replayer._conns


class TestRecordedValuePreservation:
    """Falsy recorded values must replay verbatim, not as defaults."""

    def test_zero_size_request_replays_as_zero(self):
        trace = Trace()
        trace.record_open(0.0, 1, ft(1))
        trace.record_request(0.1, 1, ft(1), event_times=[0.002], size=0)
        env = Environment()
        sink = Sink()
        replayer = TraceReplayer(env, sink, trace)
        replayer.start()
        env.run(until=1.0)
        assert len(sink.requests) == 1
        assert sink.requests[0].size_bytes == 0
        assert sink.requests[0].event_times == (0.002,)

    def test_empty_event_times_preserved(self):
        trace = Trace()
        trace.record_open(0.0, 1, ft(1))
        trace.record_request(0.1, 1, ft(1), event_times=[], size=128)
        env = Environment()
        sink = Sink()
        replayer = TraceReplayer(env, sink, trace)
        replayer.start()
        env.run(until=1.0)
        assert sink.requests[0].event_times == ()
        assert sink.requests[0].size_bytes == 128

    def test_unrecorded_fields_still_default(self):
        from repro.workloads import TraceEvent
        trace = Trace(events=[
            TraceEvent(0.0, "open", 1, ft(1)),
            TraceEvent(0.1, "request", 1, ft(1)),
        ])
        env = Environment()
        sink = Sink()
        replayer = TraceReplayer(env, sink, trace)
        replayer.start()
        env.run(until=1.0)
        assert sink.requests[0].size_bytes == 512
        assert sink.requests[0].event_times == (0.001,)


class TestTraceSerialization:
    def test_round_trip(self):
        trace = sample_trace()
        clone = Trace.from_dict(trace.to_dict())
        assert clone.to_dict() == trace.to_dict()
        assert [e for e in clone.events] == [e for e in trace.events]

    def test_round_trip_preserves_none_sentinels(self):
        from repro.workloads import TraceEvent
        trace = sample_trace()
        clone = Trace.from_dict(trace.to_dict())
        opens = [e for e in clone.events if e.kind == "open"]
        assert all(e.size is None and e.event_times is None for e in opens)
        requests = [e for e in clone.events if e.kind == "request"]
        assert all(isinstance(e.event_times, tuple) for e in requests)
        assert isinstance(clone.events[0], TraceEvent)
