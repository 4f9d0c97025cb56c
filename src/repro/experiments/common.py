"""Shared harness for every experiment.

Guarantees the A/B discipline Table 3 needs: for one (case, load) cell, all
three notification modes see byte-identical traffic (same arrival times,
same 4-tuples, same request shapes) because the traffic RNG stream is
derived from the cell, not the mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..cell import build_cell
from ..lb.server import LBServer, NotificationMode
from ..workloads.cases import build_case_workload
from ..workloads.generator import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults import FaultInjector, FaultPlan

__all__ = ["CellResult", "run_spec", "run_case_cell", "MODES_UNDER_TEST",
           "DEFAULT_SEED", "resolve_seed"]

#: The three modes Table 3 compares.
MODES_UNDER_TEST = (
    NotificationMode.EXCLUSIVE,
    NotificationMode.REUSEPORT,
    NotificationMode.HERMES,
)

#: The harness-wide fallback seed.  Callers that care about identity (the
#: registry, the sweep cache) always pass an explicit seed; this exists so
#: interactive use keeps working.
DEFAULT_SEED = 7


def resolve_seed(seed: Optional[int]) -> int:
    """Collapse ``None`` to :data:`DEFAULT_SEED` — the single place the
    fallback is applied, so a cell invoked directly or via the registry
    derives its RNG streams from the same value and hashes identically."""
    return DEFAULT_SEED if seed is None else seed


@dataclass
class CellResult:
    """Everything one experiment cell reports."""

    mode: str
    workload: str
    avg_ms: float
    p99_ms: float
    throughput_rps: float
    completed: int
    failed: int
    refused: int
    cpu_sd: float
    conn_sd: float
    cpu_utils: List[float] = field(default_factory=list)
    accepted_per_worker: List[int] = field(default_factory=list)
    #: Kept alive for experiments that probe deeper (overhead, scheduler
    #: stats); None when the caller asked for a detached summary.
    server: Optional[LBServer] = None
    #: The armed injector when the cell ran with ``faults``.
    injector: Optional["FaultInjector"] = None
    #: When the cell ran with ``check``: invariant name -> passing
    #: evaluations, and oracle name -> agreeing live comparisons.
    passes: Optional[Dict[str, int]] = None
    comparisons: Optional[Dict[str, int]] = None

    def to_doc(self) -> dict:
        """JSON-safe document (drops the live ``server`` and ``injector``
        handles and the ``check`` counts)."""
        return {
            "mode": self.mode,
            "workload": self.workload,
            "avg_ms": self.avg_ms,
            "p99_ms": self.p99_ms,
            "throughput_rps": self.throughput_rps,
            "completed": self.completed,
            "failed": self.failed,
            "refused": self.refused,
            "cpu_sd": self.cpu_sd,
            "conn_sd": self.conn_sd,
            "cpu_utils": list(self.cpu_utils),
            "accepted_per_worker": list(self.accepted_per_worker),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CellResult":
        """Rebuild from :meth:`to_doc` output (``server`` is gone)."""
        return cls(
            mode=doc["mode"], workload=doc["workload"],
            avg_ms=doc["avg_ms"], p99_ms=doc["p99_ms"],
            throughput_rps=doc["throughput_rps"],
            completed=doc["completed"], failed=doc["failed"],
            refused=doc["refused"], cpu_sd=doc["cpu_sd"],
            conn_sd=doc["conn_sd"], cpu_utils=list(doc["cpu_utils"]),
            accepted_per_worker=list(doc["accepted_per_worker"]),
        )


def run_spec(mode: NotificationMode, spec: WorkloadSpec,
             n_workers: int, seed: Optional[int] = None,
             settle: float = 0.5,
             keep_server: bool = False,
             env_hook=None, faults: Optional["FaultPlan"] = None,
             check: bool = False, **server_options) -> CellResult:
    """Run one workload spec against a fresh device in the given mode.

    ``settle`` extends the simulation beyond the generation window so
    in-flight requests can finish.  ``env_hook(env, server, gen)`` runs
    before the simulation starts (probers, samplers, monitors).
    ``faults`` arms a :class:`repro.faults.FaultPlan`; ``server_options``
    (``config``, ``tracer``, ``nic``, ``prequal_config``,
    ``splice_config``, ...) go verbatim to :func:`repro.cell.build_cell`.
    A tracer observes only and cannot change the results.

    ``check`` makes it a checked run: the device builds with
    :func:`repro.check.check_tracer` unless ``tracer`` is given,
    :func:`repro.check.watch` arms before ``env_hook``, and the run goes
    through :func:`repro.check.run_checked`; the result then carries
    ``passes`` and ``comparisons``.
    """
    if check:
        from ..check import check_tracer, run_checked, watch

        if server_options.get("tracer") is None:
            server_options["tracer"] = check_tracer()
    # The traffic stream is named by the spec, not the mode: every mode
    # replays the same connections and requests.
    cell = build_cell(spec, mode, resolve_seed(seed), n_workers=n_workers,
                      hash_stream="hash-seed",
                      traffic_stream=f"traffic:{spec.name}",
                      faults=faults, **server_options)
    server = cell.server
    monitor = watch(server) if check else None
    if env_hook is not None:
        env_hook(cell.env, server, cell.gen)
    passes = stats = None
    if monitor is None:
        cell.run(until=spec.duration + settle)
    else:
        cell.gen.start()
        passes = {}
        stats = run_checked(cell.env, monitor, spec.duration + settle,
                            passes)
    summary = server.metrics.summary()
    return CellResult(
        mode=mode.value,
        workload=spec.name,
        avg_ms=summary["avg_ms"],
        p99_ms=summary["p99_ms"],
        throughput_rps=summary["throughput_rps"],
        completed=summary["completed"],
        failed=summary["failed"],
        refused=server.metrics.connections_refused,
        cpu_sd=summary["cpu_sd"],
        conn_sd=summary["conn_sd"],
        cpu_utils=server.metrics.cpu_utilizations(),
        accepted_per_worker=[w.accepted
                             for w in server.metrics.workers.values()],
        server=server if keep_server else None,
        injector=cell.injector,
        passes=passes,
        comparisons=None if stats is None else stats.comparisons,
    )


def run_case_cell(mode: NotificationMode, case: str, load: str,
                  n_workers: int = 16, duration: float = 4.0,
                  ports: Sequence[int] = (443,),
                  seed: Optional[int] = None, **kwargs) -> CellResult:
    """Run one (mode, case, load) cell of Table 3.

    The RNG streams derive from the spec'd seed (``None`` falls back via
    :func:`resolve_seed`), never from mutable module state, so identical
    arguments produce identical results in any process.  ``kwargs``
    (``settle``, ``faults``, ``check``, ``tracer``, ``nic``, ...) go to
    :func:`run_spec`.
    """
    spec = build_case_workload(case, load, n_workers=n_workers,
                               duration=duration, ports=ports)
    return run_spec(mode, spec, n_workers=n_workers,
                    seed=resolve_seed(seed), **kwargs)
