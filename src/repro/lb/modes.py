"""The architecture registry: notification modes as pluggable specs.

Every I/O event notification architecture the simulator can run — herd,
exclusive (plus its RR / io_uring variants), reuseport, hermes, prequal,
splice, the userspace dispatcher — registers one
:class:`ArchitectureSpec` here declaring everything the rest of the stack
needs to know about it:

- how to wire an :class:`~repro.lb.server.LBServer` (``setup``);
- whether it listens on shared sockets or per-worker reuseport sockets;
- its tunables schema and ``--set`` coercion (``config_factory`` /
  ``config_kwarg`` / ``tunables``), rendered by ``repro list``;
- lifecycle hooks: ``on_start`` (e.g. start the prequal prober) and
  ``on_restart`` (repoint a dispatch program at a restarted worker's
  fresh socket).

Adding an architecture is one file: define its subsystem, write a setup
function, call :func:`register_mode` — ``LBServer``, the CLI, the
resilience matrix and the conformance suite pick it up from the registry.
``NotificationMode`` remains the typed handle experiments pass around.

Setup functions preserve the exact construction order (socket bind
order, RNG draws) of the pre-registry code: the golden SHA-256
fingerprints in ``tests/test_determinism_golden.py`` pin that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.groups import GroupedDispatchProgram, build_groups
from .worker import HermesBinding

__all__ = [
    "ArchitectureSpec", "ModeOptions", "register_mode", "get_mode",
    "mode_names", "iter_modes",
    "setup_shared", "setup_dispatcher", "setup_reuseport", "setup_hermes",
    "setup_prequal", "setup_splice",
]


@dataclass
class ModeOptions:
    """Per-mode constructor options an ``LBServer`` forwards to ``setup``."""

    #: HERMES: how the grouped dispatch program keys flows to groups.
    group_key_mode: str = "four_tuple"
    #: Shared-socket modes: rotate registration order per port (§7).
    stagger_registration: bool = False
    #: PREQUAL: a :class:`~repro.prequal.PrequalConfig` (None = defaults).
    prequal_config: Optional[Any] = None
    #: SPLICE: a :class:`~repro.splice.SpliceConfig` (None = defaults).
    splice_config: Optional[Any] = None


@dataclass(frozen=True)
class ArchitectureSpec:
    """Everything one notification architecture declares to the stack."""

    #: Registry key — matches ``NotificationMode.value``.
    name: str
    #: One-line description for ``repro list``.
    description: str
    #: Wire the mode onto a freshly-constructed server (sockets, groups,
    #: dispatch program, subsystem state).  Must not draw RNG beyond what
    #: the mode drew before the registry existed (golden hashes pin it).
    setup: Callable[[Any, ModeOptions], None]
    #: Shared listening sockets (herd/exclusive family) vs per-worker
    #: reuseport sockets (reuseport/hermes/prequal/splice).
    uses_shared_sockets: bool = False
    #: Worker 0 is a :class:`~repro.lb.dispatcher.DispatcherWorker`.
    uses_dispatcher_worker: bool = False
    #: Build the mode's config from ``--set KEY=VALUE`` overrides
    #: (None = the mode has no tunables; ``--set`` is rejected).
    config_factory: Optional[Callable[[Mapping[str, Any]], Any]] = None
    #: ``LBServer`` / ``run_spec`` keyword the config travels under.
    config_kwarg: Optional[str] = None
    #: Tunables schema: field -> default value (``repro list``).
    tunables: Callable[[], Dict[str, Any]] = field(default=lambda: {})
    #: Called once from ``LBServer.start`` after workers spawn (e.g. the
    #: prequal prober).
    on_start: Optional[Callable[[Any], None]] = None
    #: Called from ``LBServer.restart_worker`` with the restarted worker's
    #: id and its fresh socket's member index — repoint dispatch state.
    on_restart: Optional[Callable[[Any, int, int], None]] = None
    #: Early constructor validation (worker count, ports).
    validate: Optional[Callable[[int, Sequence[int]], None]] = None


_REGISTRY: Dict[str, ArchitectureSpec] = {}


def register_mode(spec: ArchitectureSpec) -> ArchitectureSpec:
    """Register an architecture (idempotent re-registration is an error)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"mode {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_mode(name: str) -> ArchitectureSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise KeyError(f"unknown notification mode {name!r}; "
                       f"registered: {', '.join(mode_names())}")
    return spec


def mode_names() -> List[str]:
    """Registered mode names, in registration order."""
    return list(_REGISTRY)


def iter_modes() -> Tuple[ArchitectureSpec, ...]:
    return tuple(_REGISTRY.values())


# -- shared helpers -----------------------------------------------------------

def _bind_worker_sockets(server, port: int) -> None:
    """Bind one reuseport socket per worker, in worker order, so a
    worker's member-socket index equals its global worker id."""
    for worker in server.workers:
        socket = server.stack.bind_reuseport(port, owner=worker)
        worker.add_listen_socket(socket)
        server._worker_sockets.setdefault(
            worker.worker_id, {})[port] = socket


# -- setup hooks (bodies moved verbatim from LBServer._setup_*) ----------------

def setup_dispatcher(server, options: ModeOptions) -> None:
    """§2.2 baseline: only the dispatcher (worker 0) listens."""
    dispatcher = server.workers[0]
    dispatcher.backends = server.workers[1:]
    for port in server.ports:
        socket = server.stack.bind_shared(port)
        dispatcher.add_listen_socket(socket)


def setup_shared(server, options: ModeOptions) -> None:
    """Shared listening sockets: herd / exclusive / RR / io_uring FIFO."""
    from .server import NotificationMode
    exclusive = server.mode is not NotificationMode.HERD
    rotate = server.mode is NotificationMode.EXCLUSIVE_RR
    insertion = ("tail" if server.mode is NotificationMode.IOURING_FIFO
                 else "head")
    n = len(server.workers)
    for port_index, port in enumerate(server.ports):
        socket = server.stack.bind_shared(port, rotate_on_wake=rotate,
                                          waiter_insertion=insertion)
        # Registration order controls which worker sits at the wait
        # queue head (the LIFO winner).  Staggering rotates it per port
        # — the failed mitigation discussed in §7.
        offset = port_index % n if options.stagger_registration else 0
        for i in range(n):
            worker = server.workers[(i + offset) % n]
            worker.add_listen_socket(socket, exclusive=exclusive)


def setup_reuseport(server, options: ModeOptions) -> None:
    """Per-worker SO_REUSEPORT sockets, stateless kernel-hash dispatch."""
    for port in server.ports:
        _bind_worker_sockets(server, port)


def setup_hermes(server, options: ModeOptions) -> None:
    """Reuseport sockets plus the full closed loop: WST, cascading
    scheduler embedded in every worker, eBPF dispatch program attached to
    every port's reuseport group."""
    clock = lambda: server.env.now  # noqa: E731 - tiny closure
    capacity = (
        [server.profile.max_connections] * len(server.workers)
        if server.profile.max_connections is not None else None)
    server.groups = build_groups(
        len(server.workers), config=server.config, clock=clock,
        capacity_limits=capacity)
    # Per-group schedulers need the sim clock; build_groups wired it.
    for group in server.groups:
        group.scheduler.tracer = server.tracer
        for rank, worker_id in enumerate(group.worker_ids):
            server.workers[worker_id].hermes = HermesBinding(
                group=group, rank=rank)
    if len(server.groups) == 1:
        server.dispatch_program = server.groups[0].program
    else:
        server.dispatch_program = GroupedDispatchProgram(
            server.groups, key_mode=options.group_key_mode)
    for port in server.ports:
        _bind_worker_sockets(server, port)
        server.stack.group_for(port).attach_program(server.dispatch_program)
    for group in server.groups:
        for rank, worker_id in enumerate(group.worker_ids):
            group.sock_map.install(rank, worker_id)


def setup_prequal(server, options: ModeOptions) -> None:
    """Reuseport sockets in worker order + the Prequal dispatch program
    attached to every port's group — the same attachment point as the
    Hermes eBPF program, with the probe pool in place of the WST."""
    # Lazy import: repro.prequal builds on repro.lb.
    from ..prequal import PrequalConfig, build_prequal
    for port in server.ports:
        _bind_worker_sockets(server, port)
    server.prequal = build_prequal(
        server.env, server, options.prequal_config or PrequalConfig(),
        tracer=server.tracer)
    server.dispatch_program = server.prequal.program
    for port in server.ports:
        server.stack.group_for(port).attach_program(server.dispatch_program)


def setup_splice(server, options: ModeOptions) -> None:
    """Reuseport sockets + the Charon load-aware dispatch program + the
    kernel splice engine (one forwarding lane per worker core)."""
    # Lazy import: repro.splice builds on repro.lb.
    from ..splice import SpliceConfig, build_splice
    for port in server.ports:
        _bind_worker_sockets(server, port)
    server.splice = build_splice(
        server.env, server, options.splice_config or SpliceConfig(),
        tracer=server.tracer)
    server.dispatch_program = server.splice.program
    for port in server.ports:
        server.stack.group_for(port).attach_program(server.dispatch_program)
    for worker in server.workers:
        worker.splice = server.splice


# -- lifecycle hooks -----------------------------------------------------------

def _start_prequal(server) -> None:
    server.prequal.prober.start()


def _restart_hermes(server, worker_id: int, new_index: int) -> None:
    worker = server.workers[worker_id]
    if worker.hermes is not None:
        worker.hermes.group.sock_map.install(worker.hermes.rank, new_index)


def _restart_prequal(server, worker_id: int, new_index: int) -> None:
    if server.prequal is not None:
        server.prequal.program.repoint(worker_id, new_index)


def _restart_splice(server, worker_id: int, new_index: int) -> None:
    if server.splice is not None:
        server.splice.program.repoint(worker_id, new_index)


def _validate_dispatcher(n_workers: int, ports: Sequence[int]) -> None:
    if n_workers < 2:
        raise ValueError("dispatcher mode needs >= 2 workers")


# -- tunables / --set plumbing -------------------------------------------------

def _prequal_config_factory(overrides: Mapping[str, Any]) -> Any:
    from ..prequal import config_from_overrides
    return config_from_overrides(overrides)


def _prequal_tunables() -> Dict[str, Any]:
    from ..core.tunables import tunable_values
    from ..prequal import PrequalConfig
    return tunable_values(PrequalConfig())


def _splice_config_factory(overrides: Mapping[str, Any]) -> Any:
    from ..splice import config_from_overrides
    return config_from_overrides(overrides)


def _splice_tunables() -> Dict[str, Any]:
    from ..core.tunables import tunable_values
    from ..splice import SpliceConfig
    return tunable_values(SpliceConfig())


# -- the built-in architectures -------------------------------------------------

register_mode(ArchitectureSpec(
    name="herd",
    description="pre-4.5 epoll: non-exclusive shared-socket registration "
                "(thundering-herd wakeups)",
    setup=setup_shared,
    uses_shared_sockets=True,
))

register_mode(ArchitectureSpec(
    name="exclusive",
    description="EPOLLEXCLUSIVE on shared sockets (LIFO wakeups)",
    setup=setup_shared,
    uses_shared_sockets=True,
))

register_mode(ArchitectureSpec(
    name="exclusive_rr",
    description="the epoll-roundrobin proposal (rotating wakeups)",
    setup=setup_shared,
    uses_shared_sockets=True,
))

register_mode(ArchitectureSpec(
    name="iouring_fifo",
    description="io_uring-style FIFO wakeup order on shared sockets (§8)",
    setup=setup_shared,
    uses_shared_sockets=True,
))

register_mode(ArchitectureSpec(
    name="reuseport",
    description="per-worker SO_REUSEPORT sockets, stateless hash dispatch",
    setup=setup_reuseport,
))

register_mode(ArchitectureSpec(
    name="hermes",
    description="userspace-directed notification: WST + cascading "
                "scheduler + eBPF dispatch program",
    setup=setup_hermes,
    on_restart=_restart_hermes,
))

register_mode(ArchitectureSpec(
    name="prequal",
    description="probe-based latency-aware scheduling (Google Prequal)",
    setup=setup_prequal,
    config_factory=_prequal_config_factory,
    config_kwarg="prequal_config",
    tunables=_prequal_tunables,
    on_start=_start_prequal,
    on_restart=_restart_prequal,
))

register_mode(ArchitectureSpec(
    name="splice",
    description="XLB-style in-kernel interposition: SOCKMAP splice "
                "forwarding + Charon load-aware dispatch weights",
    setup=setup_splice,
    config_factory=_splice_config_factory,
    config_kwarg="splice_config",
    tunables=_splice_tunables,
    on_restart=_restart_splice,
))

register_mode(ArchitectureSpec(
    name="userspace_dispatcher",
    description="§2.2 baseline: one dedicated worker accepts everything "
                "and hands off least-loaded",
    setup=setup_dispatcher,
    uses_shared_sockets=True,
    uses_dispatcher_worker=True,
    validate=_validate_dispatcher,
))
