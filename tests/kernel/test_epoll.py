"""Tests for the epoll model: wakeups, level/edge triggering, exclusivity."""

import pytest

from repro.kernel import (
    Connection,
    Epoll,
    FourTuple,
    ListeningSocket,
    Request,
)
from repro.sim import Environment


def make_conn(i=0, port=8001):
    return Connection(FourTuple(0x0A000001 + i, 40000, 0xC0A80001, port))


def run_wait(env, epoll, timeout, max_events=64):
    """Drive epoll.wait inside a process and return its result."""

    def proc(env):
        events = yield from epoll.wait(timeout, max_events)
        return events

    p = env.process(proc(env))
    env.run()
    assert p.ok, p.value
    return p.value


class TestBasicWait:
    def test_immediate_return_when_ready(self):
        env = Environment()
        ep = Epoll(env)
        sock = ListeningSocket(8001)
        ep.ctl_add(sock)
        sock.enqueue(make_conn())
        events = run_wait(env, ep, timeout=0.005)
        assert len(events) == 1
        assert events[0].fd is sock
        assert env.now == 0  # returned without blocking

    def test_timeout_returns_empty(self):
        env = Environment()
        ep = Epoll(env)
        sock = ListeningSocket(8001)
        ep.ctl_add(sock)
        events = run_wait(env, ep, timeout=0.005)
        assert events == []
        assert env.now == pytest.approx(0.005)

    def test_wakeup_mid_block(self):
        env = Environment()
        ep = Epoll(env)
        sock = ListeningSocket(8001)
        ep.ctl_add(sock)
        env.schedule_callback(0.002, lambda: sock.enqueue(make_conn()))

        def proc(env):
            events = yield from ep.wait(timeout=0.1)
            return (env.now, events)

        p = env.process(proc(env))
        env.run()
        woke_at, events = p.value
        assert len(events) == 1
        assert woke_at == pytest.approx(0.002)

    def test_already_ready_at_ctl_add(self):
        env = Environment()
        ep = Epoll(env)
        sock = ListeningSocket(8001)
        sock.enqueue(make_conn())
        ep.ctl_add(sock)  # must observe existing readiness (LT)
        events = run_wait(env, ep, timeout=0.005)
        assert len(events) == 1

    def test_double_add_rejected(self):
        env = Environment()
        ep = Epoll(env)
        sock = ListeningSocket(8001)
        ep.ctl_add(sock)
        with pytest.raises(ValueError):
            ep.ctl_add(sock)

    def test_del_unknown_rejected(self):
        env = Environment()
        ep = Epoll(env)
        with pytest.raises(ValueError):
            ep.ctl_del(ListeningSocket(8001))


class TestLevelTriggered:
    def test_undrained_socket_stays_ready(self):
        env = Environment()
        ep = Epoll(env)
        sock = ListeningSocket(8001)
        ep.ctl_add(sock)
        sock.enqueue(make_conn(1))
        sock.enqueue(make_conn(2))
        events = run_wait(env, ep, timeout=0.005)
        assert len(events) == 1
        sock.accept()  # drain only one of two
        events = run_wait(env, ep, timeout=0.005)
        assert len(events) == 1  # still ready — LT re-arm
        sock.accept()
        events = run_wait(env, ep, timeout=0.005)
        assert events == []  # drained

    def test_raced_away_event_is_dropped(self):
        """If another worker drained the queue, LT re-poll drops the event."""
        env = Environment()
        ep1, ep2 = Epoll(env, "w1"), Epoll(env, "w2")
        sock = ListeningSocket(8001)
        ep1.ctl_add(sock)
        ep2.ctl_add(sock)
        sock.enqueue(make_conn())
        # Both epolls marked ready (no one was sleeping). w2 accepts first.
        assert sock.accept() is not None
        events = run_wait(env, ep1, timeout=0.001)
        assert events == []


class TestEdgeTriggered:
    def test_delivered_once_per_edge(self):
        env = Environment()
        ep = Epoll(env)
        conn = make_conn()
        fd = conn.mark_accepted(worker="w", now=0.0)
        ep.ctl_add(fd, edge_triggered=True)
        fd.push_readable()
        events = run_wait(env, ep, timeout=0.005)
        assert len(events) == 1
        # Data NOT consumed, but no new edge: ET stays silent.
        events = run_wait(env, ep, timeout=0.005)
        assert events == []

    def test_new_edge_redelivers(self):
        env = Environment()
        ep = Epoll(env)
        conn = make_conn()
        fd = conn.mark_accepted(worker="w", now=0.0)
        ep.ctl_add(fd, edge_triggered=True)
        fd.push_readable()
        run_wait(env, ep, timeout=0.005)
        fd.push_readable()
        events = run_wait(env, ep, timeout=0.005)
        assert len(events) == 1


class TestExclusiveWakeup:
    def _setup(self, env, n_workers):
        sock = ListeningSocket(8001)
        epolls = []
        for i in range(n_workers):
            ep = Epoll(env, f"w{i}")
            ep.ctl_add(sock, exclusive=True)
            epolls.append(ep)
        return sock, epolls

    def test_single_wakeup_among_sleepers(self):
        env = Environment()
        sock, epolls = self._setup(env, 3)
        results = []

        def worker(env, ep):
            events = yield from ep.wait(timeout=1.0)
            results.append((ep.name, len(events)))

        for ep in epolls:
            env.process(worker(env, ep))
        env.schedule_callback(0.01, lambda: sock.enqueue(make_conn()))
        env.run(until=0.5)
        woken_with_events = [r for r in results if r[1] > 0]
        assert len(woken_with_events) == 1
        # LIFO: the last epoll to ctl_add (w2) is at the queue head.
        assert woken_with_events[0][0] == "w2"

    def test_lifo_repeats_to_same_worker(self):
        """Sequential conns each woken to the head worker — the imbalance."""
        env = Environment()
        sock, epolls = self._setup(env, 3)
        accept_counts = {ep.name: 0 for ep in epolls}

        def worker(env, ep):
            while env.now < 0.9:
                events = yield from ep.wait(timeout=0.05)
                for _ev in events:
                    if sock.accept() is not None:
                        accept_counts[ep.name] += 1
                        # Fast processing: back to epoll_wait immediately.

        for ep in epolls:
            env.process(worker(env, ep))

        def feeder(env):
            for i in range(20):
                yield env.timeout(0.01)
                sock.enqueue(make_conn(i))

        env.process(feeder(env))
        env.run(until=1.0)
        # All connections land on w2 (head of the wait queue).
        assert accept_counts["w2"] == 20
        assert accept_counts["w0"] == accept_counts["w1"] == 0

    def test_busy_head_falls_through(self):
        """When the head worker is busy, the next sleeper gets the wakeup."""
        env = Environment()
        sock, epolls = self._setup(env, 2)
        got = []

        def sleeper(env, ep):
            events = yield from ep.wait(timeout=1.0)
            if events:
                got.append(ep.name)

        # Only w0 sleeps; w1 (head) never calls wait (busy).
        env.process(sleeper(env, epolls[0]))
        env.schedule_callback(0.01, lambda: sock.enqueue(make_conn()))
        env.run(until=0.5)
        assert got == ["w0"]

    def test_nobody_sleeping_event_pending_for_all(self):
        """With every worker busy, the event is picked up at next wait."""
        env = Environment()
        sock, epolls = self._setup(env, 2)
        sock.enqueue(make_conn())  # nobody sleeping
        events = run_wait(env, epolls[1], timeout=0.005)
        assert len(events) == 1


class TestStats:
    def test_events_per_wait_recorded(self):
        env = Environment()
        ep = Epoll(env, collect_stats=True)
        sock = ListeningSocket(8001)
        ep.ctl_add(sock)
        sock.enqueue(make_conn())
        run_wait(env, ep, timeout=0.005)
        assert list(ep.events_per_wait.values) == [1]

    def test_blocking_time_recorded_on_timeout(self):
        env = Environment()
        ep = Epoll(env, collect_stats=True)
        sock = ListeningSocket(8001)
        ep.ctl_add(sock)
        run_wait(env, ep, timeout=0.005)
        assert list(ep.blocking_times.values) == [pytest.approx(0.005)]

    def test_stats_off_by_default_record_nothing(self):
        env = Environment()
        ep = Epoll(env)
        sock = ListeningSocket(8001)
        ep.ctl_add(sock)
        run_wait(env, ep, timeout=0.005)  # blocks to the timeout
        sock.enqueue(make_conn())
        run_wait(env, ep, timeout=0.005)  # returns at once
        assert ep.total_waits == 2
        assert not ep.events_per_wait.values
        assert not ep.blocking_times.values

    def test_max_events_batching(self):
        env = Environment()
        ep = Epoll(env)
        conns = [make_conn(i) for i in range(5)]
        fds = [c.mark_accepted("w", 0.0) for c in conns]
        for fd in fds:
            ep.ctl_add(fd)
            fd.push_readable()
        events = run_wait(env, ep, timeout=0.005, max_events=3)
        assert len(events) == 3
        # The remaining two are delivered on the next call.
        events = run_wait(env, ep, timeout=0.005, max_events=3)
        assert len(events) >= 2


class TestClose:
    def test_close_clears_interest(self):
        env = Environment()
        ep = Epoll(env)
        sock = ListeningSocket(8001)
        ep.ctl_add(sock)
        ep.close()
        assert ep.interest_count == 0
        assert len(sock.wait_queue) == 0
