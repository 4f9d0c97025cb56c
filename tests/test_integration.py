"""End-to-end integration tests: the paper's claims at test scale.

These run short full-stack simulations and assert the qualitative results
each mechanism must exhibit — the same shapes the benchmark suite measures
at larger scale.
"""

import pytest

from repro.core import HermesConfig
from repro.experiments.common import CellResult
from repro.experiments.registry import get
from repro.kernel import Connection, FourTuple, Request
from repro.lb import LBServer, NotificationMode
from repro.sim import Environment, RngRegistry
from repro.workloads import FixedFactory, TrafficGenerator, WorkloadSpec


class TestModeContrast:
    """The central A/B claims on identical traffic."""

    @pytest.fixture(scope="class")
    def case3_results(self):
        """Table 3's case3/medium cell, one device port, at seed 5."""
        merged = get("table3").run(seed=5, overrides={
            "cases": ["case3"], "loads": ["medium"], "n_workers": 4,
            "durations": {"case3": 2.0}, "ports": [443], "settle": 0.5})
        return {key.rsplit("/", 1)[1]: CellResult.from_doc(doc)
                for key, doc in merged["cells"].items()}

    def test_identical_traffic_across_modes(self, case3_results):
        completed = {r.completed for r in case3_results.values()}
        # Same arrivals: completion counts match within a whisker.
        assert max(completed) - min(completed) <= max(completed) * 0.02

    def test_exclusive_concentrates_case3(self, case3_results):
        exclusive = case3_results["exclusive"]
        assert max(exclusive.accepted_per_worker) > \
            5 * (min(exclusive.accepted_per_worker) + 1)

    def test_hermes_balances_case3(self, case3_results):
        hermes = case3_results["hermes"]
        accepted = hermes.accepted_per_worker
        assert max(accepted) < 2.0 * (sum(accepted) / len(accepted))

    def test_hermes_cpu_sd_beats_exclusive(self, case3_results):
        assert case3_results["hermes"].cpu_sd < \
            case3_results["exclusive"].cpu_sd

    def test_hermes_latency_not_worse_than_exclusive(self, case3_results):
        assert case3_results["hermes"].p99_ms <= \
            case3_results["exclusive"].p99_ms * 1.2


class TestHermesClosedLoop:
    def test_hung_worker_avoided_for_new_connections(self):
        env = Environment()
        config = HermesConfig(hang_threshold=0.02, min_workers=1)
        server = LBServer(env, n_workers=3, ports=[443],
                          mode=NotificationMode.HERMES, config=config)
        server.start()
        env.run(until=0.05)
        server.hang_worker(0, duration=5.0)
        env.run(until=0.3)  # detection settles

        landed = []

        def feed(env):
            for i in range(30):
                conn = Connection(
                    FourTuple(0x0B000000 + i * 11, 45000 + i, 1, 443),
                    created_time=env.now)
                server.connect(conn)
                landed.append(conn)
                yield env.timeout(0.01)

        env.process(feed(env))
        env.run(until=1.0)
        hung_sockets = sum(
            1 for c in landed
            if c.listen_socket and c.listen_socket.owner is server.workers[0])
        assert hung_sockets == 0

    def test_kernel_fallback_when_too_few_pass(self):
        """min_workers=2: a bitmap with one survivor forces hash fallback."""
        env = Environment()
        config = HermesConfig(hang_threshold=0.01, min_workers=2)
        server = LBServer(env, n_workers=2, ports=[443],
                          mode=NotificationMode.HERMES, config=config)
        server.start()
        env.run(until=0.05)
        server.hang_worker(0, duration=5.0)
        env.run(until=0.5)  # worker 1's scheduler publishes bitmap {1}
        assert server.groups[0].sel_map.read_from_user(0) == 0b10
        conn = Connection(FourTuple(9, 9, 9, 443), created_time=env.now)
        assert server.connect(conn)
        assert conn.listen_socket is not None
        program = server.dispatch_program
        assert program.fallbacks_too_few > 0

    def test_all_workers_hung_keeps_last_bitmap(self):
        """With every scheduler stuck, the kernel dispatches on the last
        published decision — the paper's alert-mechanism territory."""
        env = Environment()
        config = HermesConfig(hang_threshold=0.01, min_workers=2)
        server = LBServer(env, n_workers=2, ports=[443],
                          mode=NotificationMode.HERMES, config=config)
        server.start()
        env.run(until=0.05)
        last_bitmap = server.groups[0].sel_map.read_from_user(0)
        server.hang_worker(0, duration=5.0)
        server.hang_worker(1, duration=5.0)
        env.run(until=0.5)
        assert server.groups[0].sel_map.read_from_user(0) == last_bitmap
        conn = Connection(FourTuple(9, 9, 9, 443), created_time=env.now)
        assert server.connect(conn)
        assert conn.listen_socket is not None

    def test_recovered_worker_reenters_rotation(self):
        env = Environment()
        config = HermesConfig(hang_threshold=0.02, min_workers=1)
        server = LBServer(env, n_workers=2, ports=[443],
                          mode=NotificationMode.HERMES, config=config)
        server.start()
        env.run(until=0.05)
        server.hang_worker(0, duration=0.2)
        env.run(until=0.15)
        group = server.groups[0]
        assert group.sel_map.read_from_user(0) & 0b01 == 0  # excluded
        env.run(until=1.0)
        assert group.sel_map.read_from_user(0) & 0b01  # back


class TestFairnessUnderChurn:
    def test_hermes_rebalances_after_crash(self):
        env = Environment()
        registry = RngRegistry(77)
        server = LBServer(env, n_workers=4, ports=[443],
                          mode=NotificationMode.HERMES)
        server.start()
        spec = WorkloadSpec(name="churn", conn_rate=300.0, duration=3.0,
                            factory=FixedFactory((0.0005,)), ports=(443,),
                            requests_per_conn=3, request_gap_mean=0.05)
        gen = TrafficGenerator(env, server, registry.stream("t"), spec)
        gen.start()
        env.schedule_callback(1.0, lambda: server.crash_worker(0))
        env.schedule_callback(1.1,
                              lambda: server.detect_and_clean_worker(0))
        env.run(until=4.0)
        # Survivors keep completing work and stay balanced.
        survivors = [w for w in server.workers if w.is_alive]
        completed = [w.metrics.requests_completed for w in survivors]
        assert min(completed) > 0
        assert max(completed) < 2.5 * (sum(completed) / len(completed))
        assert server.metrics.requests_completed > 1000


class TestThunderingHerd:
    def test_herd_mode_wakes_everyone(self):
        """Pre-4.5 epoll: one connection wakes all sleeping workers."""
        env = Environment()
        server = LBServer(env, n_workers=4, ports=[443],
                          mode=NotificationMode.HERD)
        server.start()
        env.run(until=0.006)  # everyone parked in epoll_wait
        wakeups_before = [w.epoll.total_wakeups for w in server.workers]
        conn = Connection(FourTuple(1, 2, 3, 443), created_time=env.now)
        server.connect(conn)
        env.run(until=0.012)
        woken = sum(w.epoll.total_wakeups - b
                    for w, b in zip(server.workers, wakeups_before))
        assert woken == 4  # all four woke for one connection

    def test_exclusive_wakes_exactly_one(self):
        env = Environment()
        server = LBServer(env, n_workers=4, ports=[443],
                          mode=NotificationMode.EXCLUSIVE)
        server.start()
        env.run(until=0.006)
        wakeups_before = [w.epoll.total_wakeups for w in server.workers]
        conn = Connection(FourTuple(1, 2, 3, 443), created_time=env.now)
        server.connect(conn)
        env.run(until=0.012)
        woken = sum(w.epoll.total_wakeups - b
                    for w, b in zip(server.workers, wakeups_before))
        assert woken == 1


class TestEpollRoundRobin:
    def test_rr_spreads_sequential_connections(self):
        env = Environment()
        server = LBServer(env, n_workers=4, ports=[443],
                          mode=NotificationMode.EXCLUSIVE_RR)
        server.start()

        def feed(env):
            for i in range(40):
                yield env.timeout(0.002)
                conn = Connection(FourTuple(i, 40000 + i, 1, 443),
                                  created_time=env.now)
                server.connect(conn)

        env.process(feed(env))
        env.run(until=0.5)
        counts = server.connection_counts()
        # Round-robin: nobody hoards; everyone got a fair share.
        assert max(counts) <= 2 * (40 / 4)
        assert min(counts) >= 1
