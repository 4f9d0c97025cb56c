"""Figs. A3/A4 — the walkthrough example.

Five requests arrive on five new connections in order a, b1, b2, b3, b4.
Request ``a`` has two events of 2t each; each ``b`` has two events of t
each.  Three workers serve them.

- Epoll exclusive sends every connection to the wait-queue-head worker
  unless it is busy — the input sequence lands lopsided (Fig. A3 top).
- Reuseport may hash a ``b`` onto the worker already chewing on ``a``
  (Fig. A3 bottom).
- Hermes tracks busy/conn counts and hang timestamps and spreads the five
  connections a/b1 → three workers with nobody stuck behind ``a``
  (Fig. A4).

We drive the deterministic scenario through the full stack and report the
per-worker assignment and the makespan/latency of each request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.config import HermesConfig
from ..kernel.hash import FourTuple
from ..kernel.tcp import Connection, Request
from ..lb.server import LBServer, NotificationMode
from ..sim.engine import Environment
from .registry import CellSpec, lined_experiment

__all__ = ["WalkthroughResult", "run_figa4", "T_UNIT"]

#: The time unit 't' of the example (seconds).
T_UNIT = 0.010


@dataclass
class WalkthroughResult:
    mode: str
    #: request name -> worker id that served it.
    assignment: Dict[str, int]
    #: request name -> completion latency (in t units).
    latency_t: Dict[str, float]
    #: Worker ids that served at least one request.
    workers_used: int
    #: Max per-worker share of the five requests.
    max_share: float
    makespan_t: float


def run_figa4(mode: NotificationMode,
              n_workers: int = 3, seed: int = 3,
              hash_seed: int = 12) -> WalkthroughResult:
    env = Environment()
    config = HermesConfig(
        hang_threshold=3.5 * T_UNIT,  # 'unavailable if stuck > 3t'
        min_workers=1,
        epoll_timeout=T_UNIT / 10)
    server = LBServer(env, n_workers=n_workers, ports=[443], mode=mode,
                      config=config, hash_seed=hash_seed)
    server.start()

    requests: Dict[str, Request] = {}
    conns: Dict[str, Connection] = {}

    def send(name: str, index: int, event_time: float):
        conn = Connection(
            FourTuple(0x0A0000AA + index * 17, 41000 + index * 131,
                      0xC0A80001, 443),
            created_time=env.now)
        request = Request(event_times=(event_time, event_time))
        requests[name] = request
        conns[name] = conn
        server.connect(conn)
        server.deliver(conn, request)

    # The input sequence a, b1..b4 — one arrival per t, as in Fig. A4's
    # t1..t5 timeline.
    env.schedule_callback(0.0, lambda: send("a", 0, 2 * T_UNIT))
    for i in range(1, 5):
        env.schedule_callback(i * T_UNIT,
                              lambda i=i: send(f"b{i}", i, T_UNIT))
    env.run(until=40 * T_UNIT)

    assignment: Dict[str, int] = {}
    latency: Dict[str, float] = {}
    makespan = 0.0
    for name, request in requests.items():
        conn = conns[name]
        if conn.worker is not None:
            assignment[name] = conn.worker.worker_id
        latency[name] = ((request.completed_time - request.arrival_time)
                         / T_UNIT if request.completed_time >= 0 else -1)
        makespan = max(makespan, request.completed_time)
    counts: Dict[int, int] = {}
    for worker_id in assignment.values():
        counts[worker_id] = counts.get(worker_id, 0) + 1
    total = sum(counts.values()) or 1
    return WalkthroughResult(
        mode=mode.value,
        assignment=assignment,
        latency_t=latency,
        workers_used=len(counts),
        max_share=max(counts.values()) / total if counts else 0.0,
        makespan_t=makespan / T_UNIT,
    )


def _line(r: WalkthroughResult) -> str:
    lat = {k: round(v, 2) for k, v in sorted(r.latency_t.items())}
    return (f"{r.mode:10s} workers used {r.workers_used}  "
            f"max share {r.max_share:.2f}  makespan {r.makespan_t:.1f}t  "
            f"latencies {lat}")


def _cells(seed, overrides):
    params = {"n_workers": overrides.get("n_workers", 3),
              "hash_seed": overrides.get("hash_seed", 12)}
    return tuple(
        CellSpec("figa4", mode.value, dict(params, mode=mode.value), seed)
        for mode in (NotificationMode.EXCLUSIVE, NotificationMode.REUSEPORT,
                     NotificationMode.HERMES))


def _run_cell(cell):
    from dataclasses import asdict
    p = cell.params
    r = run_figa4(NotificationMode(p["mode"]), n_workers=p["n_workers"],
                  seed=cell.seed, hash_seed=p["hash_seed"])
    return dict(asdict(r), rendered=_line(r))


lined_experiment("figa4", "Walkthrough example (Figs. A3/A4)",
                 _cells, _run_cell, default_seed=3,
                 tunables={"n_workers": "workers behind the device",
                           "hash_seed": "kernel reuseport hash seed"})


if __name__ == "__main__":  # pragma: no cover - manual harness
    for mode in (NotificationMode.EXCLUSIVE, NotificationMode.REUSEPORT,
                 NotificationMode.HERMES):
        print(_line(run_figa4(mode)))
