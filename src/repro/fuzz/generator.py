"""Seeded scenario generation: workload × faults × mode × fleet size.

Every draw comes from a named stream of one :class:`~repro.sim.rng.
RngRegistry`, so scenario ``i`` of seed ``S`` is always the same scenario
— independent of how many scenarios came before it or which ones the
runner executes.  Generated fault plans are *canonical* by construction:
only kind-applicable fields are ever drawn (which the stricter
:class:`~repro.faults.FaultSpec` validation now also enforces), so two
distinct plan JSONs never alias the same behaviour and the shrinker can
deduplicate scenarios by their serialized form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.registry import normalize_doc
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..sim.rng import RngRegistry, Stream
from ..workloads.library import FAMILIES, family_names

__all__ = ["Scenario", "generate_scenarios", "random_plan",
           "DEFAULT_MODES", "FLEET_MODES"]

#: Modes the fuzzer samples for single-device scenarios.
DEFAULT_MODES: Tuple[str, ...] = (
    "hermes", "exclusive", "reuseport", "prequal", "splice")

#: Modes fleet scenarios draw from (what a ``fleet_instance`` supports).
FLEET_MODES: Tuple[str, ...] = ("hermes", "reuseport", "exclusive")

#: Single-device fault kinds that arm against any mode.
_DEVICE_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.WORKER_HANG, FaultKind.WORKER_CRASH, FaultKind.SLOW_WORKER,
    FaultKind.NIC_LOSS,
)

#: Kinds that additionally need HERMES state (WST / selection bitmap).
_HERMES_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.WST_FREEZE, FaultKind.WST_TORN_BURST,
    FaultKind.BITMAP_SYNC_LOSS,
)

#: Fleet-scope kinds (armed on a fleet-only injector).
_FLEET_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.BACKEND_CHURN, FaultKind.INSTANCE_CRASH,
    FaultKind.INSTANCE_DRAIN,
)


@dataclass(frozen=True)
class Scenario:
    """One fully specified fuzz scenario — JSON-round-trippable."""

    name: str
    family: str
    #: Workload-family parameters (JSON-safe).
    workload: Dict[str, object]
    mode: str
    n_workers: int
    #: None = a single LB device; N = a fleet of N instances.
    n_instances: Optional[int]
    plan: Dict[str, object]
    seed: int
    policy: str = "stateless"
    rate: float = 1.0
    #: Deliberate-corruption drill armed by the runner (e.g.
    #: ``"corrupt_bitmap"``); None for honest runs.
    drill: Optional[str] = None
    #: Inline trace events (shrinker bisections); None = build from the
    #: family parameters.
    trace_events: Optional[List[dict]] = field(default=None)

    def to_dict(self) -> dict:
        return normalize_doc({
            "name": self.name,
            "family": self.family,
            "workload": self.workload,
            "mode": self.mode,
            "n_workers": self.n_workers,
            "n_instances": self.n_instances,
            "plan": self.plan,
            "seed": self.seed,
            "policy": self.policy,
            "rate": self.rate,
            "drill": self.drill,
            "trace_events": self.trace_events,
        })

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(
            name=data["name"],
            family=data["family"],
            workload=dict(data["workload"]),
            mode=data["mode"],
            n_workers=int(data["n_workers"]),
            n_instances=(None if data.get("n_instances") is None
                         else int(data["n_instances"])),
            plan=dict(data["plan"]),
            seed=int(data["seed"]),
            policy=data.get("policy", "stateless"),
            rate=float(data.get("rate", 1.0)),
            drill=data.get("drill"),
            trace_events=data.get("trace_events"),
        )

    @property
    def is_fleet(self) -> bool:
        return self.n_instances is not None

    def fault_plan(self) -> FaultPlan:
        return FaultPlan.from_dict(self.plan)


def _random_spec(rng: Stream, kind: FaultKind, n_workers: int,
                 n_instances: Optional[int], horizon: float) -> FaultSpec:
    """Draw one canonical spec: only kind-applicable fields are set."""
    at = round(rng.uniform(0.05, max(0.06, horizon * 0.6)), 4)
    duration = round(rng.uniform(0.02, max(0.03, horizon * 0.3)), 4)

    def victim(limit: int):
        roll = rng.random()
        if roll < 0.4:
            return rng.randrange(limit)
        return "busiest" if roll < 0.7 else "random"

    if kind is FaultKind.WORKER_HANG:
        count = rng.randrange(1, 4)
        return FaultSpec(kind=kind, at=at, duration=duration / 4,
                         target=victim(n_workers), count=count,
                         period=(round(duration, 4) if count > 1 else 0.0))
    if kind is FaultKind.WORKER_CRASH:
        detect = round(rng.uniform(0.002, 0.01), 4)
        restart = (round(detect + rng.uniform(0.01, 0.1), 4)
                   if rng.random() < 0.5 else None)
        return FaultSpec(kind=kind, at=at, target=victim(n_workers),
                         detect_delay=detect, restart_after=restart)
    if kind is FaultKind.SLOW_WORKER:
        return FaultSpec(kind=kind, at=at, duration=duration,
                         target=victim(n_workers),
                         magnitude=round(rng.uniform(2.0, 8.0), 2))
    if kind is FaultKind.NIC_LOSS:
        return FaultSpec(kind=kind, at=at, duration=duration,
                         magnitude=round(rng.uniform(0.05, 0.3), 3))
    if kind is FaultKind.WST_FREEZE:
        return FaultSpec(kind=kind, at=at, duration=duration,
                         target=victim(n_workers))
    if kind is FaultKind.WST_TORN_BURST:
        return FaultSpec(kind=kind, at=at, duration=duration,
                         magnitude=round(rng.uniform(0.1, 0.5), 3))
    if kind is FaultKind.BITMAP_SYNC_LOSS:
        return FaultSpec(kind=kind, at=at, duration=duration)
    if kind is FaultKind.BACKEND_CHURN:
        return FaultSpec(kind=kind, at=at,
                         magnitude=rng.randrange(1, 3))
    if kind is FaultKind.INSTANCE_CRASH:
        assert n_instances is not None
        return FaultSpec(kind=kind, at=at, target=victim(n_instances),
                         detect_delay=round(rng.uniform(0.002, 0.01), 4))
    if kind is FaultKind.INSTANCE_DRAIN:
        assert n_instances is not None
        return FaultSpec(kind=kind, at=at, duration=duration,
                         target=victim(n_instances))
    raise ValueError(f"unhandled fault kind {kind}")


def random_plan(rng: Stream, mode: str, n_workers: int,
                n_instances: Optional[int], horizon: float,
                seed: int, max_faults: int = 2) -> FaultPlan:
    """A random valid plan for this scenario shape.

    Fleet scenarios draw fleet-scope kinds (the injector arms with
    ``server=None``); single-device scenarios draw worker/NIC kinds, plus
    WST/bitmap kinds when the mode carries Hermes state.
    """
    if n_instances is not None:
        pool: Tuple[FaultKind, ...] = _FLEET_KINDS
    elif mode == "hermes":
        pool = _DEVICE_KINDS + _HERMES_KINDS
    else:
        pool = _DEVICE_KINDS
    n_faults = rng.randrange(0, max_faults + 1)
    faults = tuple(
        _random_spec(rng, pool[rng.randrange(len(pool))], n_workers,
                     n_instances, horizon)
        for _ in range(n_faults))
    return FaultPlan(faults=faults, seed=seed)


def generate_scenarios(budget: int, seed: int,
                       modes: Optional[Sequence[str]] = None,
                       families: Optional[Sequence[str]] = None,
                       fleet_fraction: float = 0.25,
                       max_faults: int = 2,
                       drill: Optional[str] = None) -> List[Scenario]:
    """Draw ``budget`` seeded scenarios.

    Scenario ``i`` depends only on ``(seed, i)`` and the filter
    arguments — the stream is forked per index, so truncating or
    extending the budget never reshuffles earlier scenarios.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    mode_pool = tuple(modes) if modes else DEFAULT_MODES
    family_pool = tuple(families) if families else tuple(family_names())
    for name in family_pool:
        if name not in FAMILIES:
            raise KeyError(f"unknown workload family {name!r}")
    fleet_pool = tuple(m for m in mode_pool if m in FLEET_MODES)
    registry = RngRegistry(seed)
    scenarios: List[Scenario] = []
    for i in range(budget):
        rng = registry.stream(f"scenario:{i}")
        fleet = bool(fleet_pool) and rng.random() < fleet_fraction
        if fleet:
            mode = fleet_pool[rng.randrange(len(fleet_pool))]
            n_instances: Optional[int] = rng.randrange(2, 5)
            n_workers = rng.randrange(1, 3)
            policy = "stateless" if rng.random() < 0.5 else "stateful"
        else:
            mode = mode_pool[rng.randrange(len(mode_pool))]
            n_instances = None
            n_workers = rng.randrange(2, 9)
            policy = "stateless"
        family_name = family_pool[rng.randrange(len(family_pool))]
        family = FAMILIES[family_name]
        workload = family.sample(rng)
        horizon = float(workload.get(
            "duration", family.defaults.get("duration", 1.0)))
        rate = float(rng.randrange(1, 4))
        scenario_seed = rng.randrange(2 ** 31)
        plan = random_plan(rng, mode, n_workers, n_instances,
                           horizon / rate, seed=scenario_seed,
                           max_faults=max_faults)
        scenarios.append(Scenario(
            name=f"s{seed}-{i:04d}-{family_name}-{mode}"
                 + (f"-fleet{n_instances}" if fleet else ""),
            family=family_name,
            workload=normalize_doc(workload),
            mode=mode,
            n_workers=n_workers,
            n_instances=n_instances,
            plan=plan.to_dict(),
            seed=scenario_seed,
            policy=policy,
            rate=rate,
            drill=drill,
        ))
    return scenarios
