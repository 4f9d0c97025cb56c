"""Tests for the real multi-process echo LB (real sockets, real epoll)."""

import statistics
import time

import pytest

from repro.runtime import (
    HashConnector,
    HermesConnector,
    RealWorkerPool,
)
from repro.core import HermesConfig
from repro.sim import RngRegistry


def rng(name="conn"):
    return RngRegistry(19).stream(name)


class TestPoolLifecycle:
    def test_start_serve_stop(self):
        pool = RealWorkerPool(2)
        pool.start()
        try:
            connector = HashConnector(ports=pool.ports, rng=rng())
            result = connector.request(b"hello")
            assert result.ok
            assert result.latency < 1.0
        finally:
            pool.stop()

    def test_bitmap_published_by_real_schedulers(self):
        pool = RealWorkerPool(3)
        pool.start()
        try:
            time.sleep(0.3)
            # All three healthy workers selected.
            assert pool.current_bitmap() == 0b111
        finally:
            pool.stop()

    def test_wst_updated_by_real_workers(self):
        pool = RealWorkerPool(2)
        pool.start()
        try:
            time.sleep(0.2)
            first = pool.snapshot()
            time.sleep(0.2)
            second = pool.snapshot()
            # Loop-entry timestamps keep advancing (both loops alive).
            assert all(b > a for a, b in zip(first.times, second.times))
        finally:
            pool.stop()

    def test_connection_counter_tracks_real_connections(self):
        import socket
        pool = RealWorkerPool(1)
        pool.start()
        try:
            conns = [socket.create_connection(("127.0.0.1", pool.ports[0]),
                                              timeout=2.0)
                     for _ in range(5)]
            time.sleep(0.3)
            assert pool.snapshot().conns[0] == 5
            for c in conns:
                c.close()
            time.sleep(0.3)
            assert pool.snapshot().conns[0] == 0
        finally:
            pool.stop()

    def test_validation(self):
        with pytest.raises(ValueError):
            RealWorkerPool(0)
        with pytest.raises(ValueError):
            RealWorkerPool(65)


class TestEchoProtocol:
    def test_echo_roundtrip(self):
        pool = RealWorkerPool(2)
        pool.start()
        try:
            connector = HashConnector(ports=pool.ports, rng=rng())
            for i in range(10):
                result = connector.request(f"msg{i}".encode())
                assert result.ok
            assert connector.failures() == 0
        finally:
            pool.stop()

    def test_hash_connector_spreads(self):
        pool = RealWorkerPool(3)
        pool.start()
        try:
            connector = HashConnector(ports=pool.ports, rng=rng())
            for i in range(60):
                connector.request(b"x")
            counts = connector.per_worker_counts()
            assert all(c > 5 for c in counts)
        finally:
            pool.stop()


class TestClosedLoopForReal:
    def test_hermes_connector_follows_bitmap(self):
        pool = RealWorkerPool(3)
        pool.start()
        try:
            time.sleep(0.3)
            connector = HermesConnector(ports=pool.ports, rng=rng(),
                                        sel_map=pool.sel_map)
            for _ in range(30):
                assert connector.request(b"y").ok
            counts = connector.per_worker_counts()
            assert sum(counts) == 30
            assert connector.fallbacks == 0
        finally:
            pool.stop()

    def test_slow_worker_avoided_by_hermes_dispatch(self):
        """The end-to-end aha on real sockets: a worker stuck chewing a
        pipelined stream of 150 ms requests drops out of the live bitmap,
        and the Hermes connector routes around it, while a stateless hash
        on the same pool keeps assigning it ~1/3 of connections and pays
        for it in latency."""
        import socket
        import threading

        config = HermesConfig(hang_threshold=0.04, min_workers=1,
                              epoll_timeout=0.005)
        pool = RealWorkerPool(3, slow_workers={0: 0.15}, config=config)
        pool.start()
        try:
            time.sleep(0.3)

            # Background: paced requests straight at the slow worker's
            # port.  Arrival rate (20/s) x service (150 ms) = utilization
            # 3 — a permanent backlog that keeps its event loop stale.
            stop_hammer = threading.Event()

            def hammer():
                try:
                    with socket.create_connection(
                            ("127.0.0.1", pool.ports[0]),
                            timeout=10.0) as conn:
                        conn.settimeout(0.01)
                        while not stop_hammer.is_set():
                            conn.sendall(b"h")
                            try:
                                conn.recv(4096)
                            except OSError:
                                pass
                            time.sleep(0.05)
                except OSError:
                    pass

            threads = [threading.Thread(target=hammer, daemon=True)
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            time.sleep(0.8)  # let the backlog stall worker 0 and the
            #                  schedulers observe it

            hermes = HermesConnector(ports=pool.ports, rng=rng("h"),
                                     sel_map=pool.sel_map, timeout=5.0)
            hashed = HashConnector(ports=pool.ports, rng=rng("r"),
                                   timeout=5.0)
            for _ in range(30):
                hermes.request(b"probe")
                hashed.request(b"probe")
            stop_hammer.set()
            slow_share = hermes.per_worker_counts()[0]
            assert slow_share <= 4, \
                f"hermes sent {slow_share}/30 to the stuck worker"
            assert hashed.per_worker_counts()[0] >= 4
            assert hermes.failures() == 0
            assert statistics.mean(hermes.latencies()) \
                < statistics.mean(hashed.latencies())
        finally:
            pool.stop()
