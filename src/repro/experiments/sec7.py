"""§7 Experiences — the two deployment incidents and the crash blast radius.

1. **Backend round-robin restarts** (``run_backend_rr``): after a server-
   list update, every worker restarts round-robin at index 0; with Hermes
   spreading requests thinly across all workers, the head servers get 2-3×
   traffic.  Randomized per-worker offsets fix it.

2. **Upstream connection reuse** (``run_connection_reuse``): spreading
   traffic over all workers fragments per-worker connection pools; a shared
   pool restores reuse.

3. **Worker crash blast radius** (``run_crash_blast``): under exclusive,
   connections concentrate, so one crash can take out most of the device's
   connections (the paper's HTTP/2-upgrade incident killed >70%); under
   Hermes the blast radius is ~1/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import FlightRecorder

from ..cell import Cell, build_cell
from ..lb.backend import BackendPool
from ..lb.server import NotificationMode
from ..sim.rng import RngRegistry
from ..workloads.generator import WorkloadSpec
from .registry import CellSpec, check_claims, lined_experiment

__all__ = ["BackendRrResult", "run_backend_rr",
           "ReuseResult", "run_connection_reuse",
           "CrashBlastResult", "blast_cell", "blast_result",
           "run_crash_blast"]


# ---------------------------------------------------------------------------
# Experience 1: synchronized round-robin restarts.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackendRrResult:
    #: max/mean requests per backend right after a list update.
    imbalance_synchronized: float
    imbalance_randomized: float
    n_workers: int
    n_servers: int
    requests_per_worker: int


def run_backend_rr(n_workers: int = 32, n_servers: int = 20,
                   requests_per_worker: int = 6,
                   seed: int = 71) -> BackendRrResult:
    """Few requests per worker after an update ⇒ head servers overloaded.

    ``requests_per_worker`` is deliberately small (Hermes spreads load, so
    each worker sees only a few requests between updates — the regime that
    triggered the incident).
    """
    rng = RngRegistry(seed).stream("offsets")

    def imbalance(randomize: bool) -> float:
        pool = BackendPool(n_servers, n_workers)
        pool.update_server_list(n_servers, rng=rng,
                                randomize_offsets=randomize)
        for worker_id in range(n_workers):
            for _ in range(requests_per_worker):
                pool.next_server(worker_id)
        return pool.imbalance_ratio()

    return BackendRrResult(
        imbalance_synchronized=imbalance(False),
        imbalance_randomized=imbalance(True),
        n_workers=n_workers, n_servers=n_servers,
        requests_per_worker=requests_per_worker)


# ---------------------------------------------------------------------------
# Experience 2: upstream connection reuse.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReuseResult:
    handshakes_per_worker_pools: int
    handshakes_shared_pool: int
    #: Mean added upstream latency per request for each pooling policy.
    added_latency_per_worker: float
    added_latency_shared: float


def run_connection_reuse(n_workers: int = 32, n_servers: int = 8,
                         n_requests: int = 2000,
                         handshake_cost: float = 0.002,
                         seed: int = 73) -> ReuseResult:
    rng = RngRegistry(seed).stream("spread")

    def run(shared: bool):
        pool = BackendPool(n_servers, n_workers, shared_pool=shared,
                           handshake_cost=handshake_cost)
        total_latency = 0.0
        for _ in range(n_requests):
            # Hermes-style spreading: requests land on random workers.
            worker_id = rng.randrange(n_workers)
            total_latency += pool.forward(worker_id)
        return pool.total_handshakes(), total_latency / n_requests

    rng_state = rng.getstate()
    per_worker_handshakes, per_worker_latency = run(False)
    rng.setstate(rng_state)  # identical request→worker sequence
    shared_handshakes, shared_latency = run(True)
    return ReuseResult(
        handshakes_per_worker_pools=per_worker_handshakes,
        handshakes_shared_pool=shared_handshakes,
        added_latency_per_worker=per_worker_latency,
        added_latency_shared=shared_latency)


# ---------------------------------------------------------------------------
# Experience 3: crash blast radius.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrashBlastResult:
    mode: str
    total_connections: int
    connections_killed: int
    blast_fraction: float
    #: Post-mortem dump (JSON-ready dicts) of the last events before and
    #: during the crash, when a flight recorder was wired in; else None.
    flight_events: Optional[List[dict]] = None


def blast_cell(mode: NotificationMode, n_workers: int, n_connections: int,
               seed: int, tracer=None) -> Cell:
    """The crash-blast device, built and unrun: long-lived connections
    opened over 2 s, and a declarative ``worker_crash``
    :class:`~repro.faults.FaultSpec` armed through the
    :class:`~repro.faults.FaultInjector` — the same injection path the
    chaos CLI and the resilience matrix use — firing at t=2.5 with a short
    failure-detection window (generation has ended by then, so the window
    length doesn't change the blast count)."""
    from ..faults import FaultKind, FaultPlan, FaultSpec
    from ..workloads.distributions import FixedFactory

    spec = WorkloadSpec(name="blast", conn_rate=n_connections / 2.0,
                        duration=2.0, factory=FixedFactory((200e-6,)),
                        ports=(443,), requests_per_conn=50,
                        request_gap_mean=0.5)
    plan = FaultPlan(faults=(
        FaultSpec(kind=FaultKind.WORKER_CRASH, at=2.5, target="busiest",
                  detect_delay=0.005),
    ), seed=seed)
    return build_cell(spec, mode, seed, n_workers=n_workers, faults=plan,
                      tracer=tracer)


def run_crash_blast(mode: NotificationMode, n_workers: int = 8,
                    n_connections: int = 400, seed: int = 79,
                    flight_recorder: Optional["FlightRecorder"] = None,
                    ) -> CrashBlastResult:
    """Establish long-lived connections, crash the busiest worker, count
    how many connections die with it (see :func:`blast_cell`).

    With ``flight_recorder`` set, the whole stack runs traced in
    flight-only mode (bounded memory) and the injector dumps the recorder
    right after the crash cleanup — the post-mortem workflow.
    """
    tracer = None
    if flight_recorder is not None:
        from ..obs import Tracer
        tracer = Tracer(recorder=flight_recorder, keep_events=False)
    cell = blast_cell(mode, n_workers, n_connections, seed, tracer=tracer)
    return blast_result(cell.run(until=3.0))


def blast_result(cell: Cell) -> CrashBlastResult:
    """What a run :func:`blast_cell` reports: the connections alive when
    the crash fired, and how many its cleanup killed."""
    from ..faults import FaultKind

    injector = cell.injector
    fire = injector.fired(FaultKind.WORKER_CRASH)[0]
    cleanup = [r for r in injector.log if r["event"] == "clear"][0]
    total = fire["total_conns"]
    killed = cleanup["blast"]
    return CrashBlastResult(
        mode=cell.server.mode.value,
        total_connections=total,
        connections_killed=killed,
        blast_fraction=killed / total if total else 0.0,
        flight_events=(injector.crash_dumps[0] if injector.crash_dumps
                       else None))


# ---------------------------------------------------------------------------
# Registry wiring: three experiences as independent cells.
# ---------------------------------------------------------------------------

def _rr_line(rr: BackendRrResult) -> str:
    return (f"backend rr imbalance: synchronized "
            f"{rr.imbalance_synchronized:.2f}x "
            f"randomized {rr.imbalance_randomized:.2f}x")


def _reuse_line(reuse: ReuseResult) -> str:
    return (f"handshakes: per-worker pools "
            f"{reuse.handshakes_per_worker_pools} "
            f"shared pool {reuse.handshakes_shared_pool}")


def _blast_line(blast: CrashBlastResult) -> str:
    return (f"crash blast {blast.mode}: {blast.connections_killed}/"
            f"{blast.total_connections} = {blast.blast_fraction * 100:.1f}%")


def _cells(seed, overrides):
    crash_params = {"n_workers": overrides.get("n_workers", 8),
                    "n_connections": overrides.get("n_connections", 400)}
    return (
        CellSpec("sec7", "backend_rr", {}, seed),
        CellSpec("sec7", "connection_reuse", {}, seed + 2),
        CellSpec("sec7", "crash_blast/exclusive",
                 dict(crash_params, mode="exclusive"), seed + 8),
        CellSpec("sec7", "crash_blast/hermes",
                 dict(crash_params, mode="hermes"), seed + 8),
    )


def _run_cell(cell):
    from dataclasses import asdict
    p = cell.params
    if cell.key == "backend_rr":
        rr = run_backend_rr(seed=cell.seed)
        return dict(asdict(rr), rendered=_rr_line(rr))
    if cell.key == "connection_reuse":
        reuse = run_connection_reuse(seed=cell.seed)
        return dict(asdict(reuse), rendered=_reuse_line(reuse))
    blast = run_crash_blast(NotificationMode(p["mode"]),
                            n_workers=p["n_workers"],
                            n_connections=p["n_connections"],
                            seed=cell.seed)
    return dict(asdict(blast), rendered=_blast_line(blast))


def _claims(merged):
    return check_claims(merged["cells"], (
        ("synchronized_rr_overloads_head_servers", ["backend_rr"],
         lambda rr: (rr["imbalance_synchronized"] > 2.0,
                     f"max/mean {rr['imbalance_synchronized']:.2f}x > 2x")),
        ("randomized_offsets_even_out_rr", ["backend_rr"],
         lambda rr: (rr["imbalance_randomized"] < 2.0
                     and rr["imbalance_randomized"]
                     < rr["imbalance_synchronized"] / 1.5,
                     f"{rr['imbalance_randomized']:.2f}x < 2x and < "
                     f"{rr['imbalance_synchronized']:.2f}x / 1.5")),
        ("shared_pool_restores_upstream_reuse", ["connection_reuse"],
         lambda reuse: (
             reuse["handshakes_per_worker_pools"]
             >= 8 * reuse["handshakes_shared_pool"]
             and reuse["added_latency_shared"]
             < reuse["added_latency_per_worker"],
             f"handshakes {reuse['handshakes_per_worker_pools']} per-worker "
             f">= 8 x {reuse['handshakes_shared_pool']} shared; added "
             f"{reuse['added_latency_shared'] * 1e3:.3f} < "
             f"{reuse['added_latency_per_worker'] * 1e3:.3f} ms/req")),
        ("exclusive_crash_kills_most_connections", ["crash_blast/exclusive"],
         lambda blast: (blast["blast_fraction"] > 0.70,
                        f"{blast['blast_fraction']:.1%} > 70%")),
        ("hermes_crash_blast_near_one_worker", ["crash_blast/hermes"],
         lambda blast: (blast["blast_fraction"] < 0.25,
                        f"{blast['blast_fraction']:.1%} < 25%")),
    ))


lined_experiment(
    "sec7", "§7 deployment experiences and crash blast radius",
    _cells, _run_cell, default_seed=71, claims=_claims,
    tunables={"n_workers": "workers behind the crash-blast device",
              "n_connections": "connections open at the crash"})
