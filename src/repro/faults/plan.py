"""Declarative fault plans — the "what, when, to whom" of an experiment.

A :class:`FaultPlan` is a JSON-serializable list of timed :class:`FaultSpec`
entries describing *every* failure class the paper's evaluation touches:

- ``worker_hang`` — one worker's event loop blocks (GC pause, heavy
  edge-triggered drain); ``count``/``period`` turn a single hang into a
  hang train (repeated GC-pause bursts).
- ``worker_crash`` — the §7 incident: a worker process dies, its sockets
  linger until failure detection (``detect_delay``), and it optionally
  comes back ``restart_after`` seconds after the crash.
- ``slow_worker`` — one worker's userspace service time is multiplied by
  ``magnitude`` for ``duration`` (thermal throttling, noisy neighbour).
- ``wst_freeze`` — one worker's WST loop-entry timestamp stops advancing
  (a stuck time source / dead publisher): the paper's staleness filter is
  what must catch it.
- ``wst_torn_burst`` — the WST temporarily loses per-cell atomicity and
  serves torn 32-bit halves with probability ``magnitude`` (§5.3.1's
  atomicity argument, as a runtime fault).
- ``bitmap_sync_loss`` — userspace stops pushing the selection bitmap to
  the kernel map: the eBPF program runs on a stale worker set (the shared
  failure surface with XLB-style eBPF datapaths).
- ``nic_loss`` — the NIC drops arriving SYNs/data with probability
  ``magnitude`` for ``duration`` (loss burst).
- ``instance_crash`` / ``instance_drain`` — fleet-scope faults
  (``repro.fleet``): a whole LB instance dies (every worker at once, with
  a ``detect_delay`` failure-detection window) or is taken out of
  new-connection rotation.  ``target`` selects the instance the same way
  worker faults select a worker (index, ``"busiest"``, ``"random"``).
- ``backend_churn`` — the fleet's backend set rolls: ``magnitude``
  backends retire and as many fresh ones join, publishing a new
  version-stamped backend mapping (the PCC stress scenario).

Plans are deterministic: every randomized choice (``target="random"``,
``jitter``) draws from a named :class:`~repro.sim.rng.RngRegistry` stream
derived from the plan's ``seed``, so the same JSON + seed always reproduces
the same fault sequence.  An **empty plan arms nothing** — the injector
schedules no callbacks and draws no random numbers, leaving the simulation
bit-identical to a run without an injector.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Iterator, Optional, Tuple, Union

__all__ = ["FaultKind", "FaultSpec", "FaultPlan"]


class FaultKind(Enum):
    WORKER_HANG = "worker_hang"
    WORKER_CRASH = "worker_crash"
    SLOW_WORKER = "slow_worker"
    WST_FREEZE = "wst_freeze"
    WST_TORN_BURST = "wst_torn_burst"
    BITMAP_SYNC_LOSS = "bitmap_sync_loss"
    NIC_LOSS = "nic_loss"
    INSTANCE_CRASH = "instance_crash"
    INSTANCE_DRAIN = "instance_drain"
    BACKEND_CHURN = "backend_churn"


#: Kinds that act on one victim worker (and therefore accept ``target``).
WORKER_KINDS = frozenset({
    FaultKind.WORKER_HANG, FaultKind.WORKER_CRASH, FaultKind.SLOW_WORKER,
    FaultKind.WST_FREEZE,
})

#: Fleet-scope kinds that act on one victim LB instance.
INSTANCE_KINDS = frozenset({
    FaultKind.INSTANCE_CRASH, FaultKind.INSTANCE_DRAIN,
})

#: Kinds that need an armed :class:`~repro.fleet.Fleet` to act on.
FLEET_KINDS = INSTANCE_KINDS | frozenset({FaultKind.BACKEND_CHURN})

#: Kinds whose ``magnitude`` is a probability in [0, 1].
PROBABILITY_KINDS = frozenset({FaultKind.WST_TORN_BURST, FaultKind.NIC_LOSS})

#: Kinds with a failure-detection window (accept ``detect_delay``).
CRASH_KINDS = frozenset({FaultKind.WORKER_CRASH, FaultKind.INSTANCE_CRASH})

#: Kinds that pick a single victim (accept ``target``).
TARGETED_KINDS = WORKER_KINDS | INSTANCE_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One timed fault.

    ``target`` selects the victim for worker-scoped kinds: an explicit
    worker id, ``"busiest"`` (most connections at fire time, lowest id on
    ties), or ``"random"`` (drawn from the plan's RNG stream among alive
    workers).  ``magnitude`` is kind-specific: a service-time multiplier
    for ``slow_worker``, a probability for ``wst_torn_burst``/``nic_loss``
    and the churn size for ``backend_churn``.
    """

    kind: FaultKind
    #: Sim time of the (first) occurrence.
    at: float
    #: How long the fault stays active; 0 = instantaneous (hang, crash).
    duration: float = 0.0
    target: Union[int, str, None] = None
    magnitude: float = 1.0
    #: Occurrences (a hang/GC-pause train fires ``count`` times).
    count: int = 1
    #: Gap between train occurrences.
    period: float = 0.0
    #: Crash only: failure-detection delay before socket cleanup.
    detect_delay: Optional[float] = None
    #: Crash only: restart the worker this long after the crash fired
    #: (requires ``detect_delay`` and must not precede it).
    restart_after: Optional[float] = None
    #: Uniform ±jitter applied to each occurrence time (seeded stream).
    jitter: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, FaultKind):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        for name in ("at", "duration", "period", "jitter", "magnitude",
                     "detect_delay", "restart_after"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.period < 0 or self.jitter < 0:
            raise ValueError("period and jitter must be >= 0")
        if self.count > 1 and self.period <= 0:
            raise ValueError("a fault train (count > 1) needs period > 0")
        if self.target is not None and self.kind not in TARGETED_KINDS:
            raise ValueError(
                f"{self.kind.value} does not take a target "
                f"(only worker/instance-scoped kinds do)")
        if self.target is not None and not isinstance(self.target, int) \
                and self.target not in ("busiest", "random"):
            raise ValueError(
                f"target must be a worker id, 'busiest' or 'random', "
                f"got {self.target!r}")
        if self.kind in PROBABILITY_KINDS and not 0 <= self.magnitude <= 1:
            raise ValueError(
                f"{self.kind.value} magnitude is a probability, "
                f"got {self.magnitude}")
        if self.kind not in PROBABILITY_KINDS and self.magnitude < 0:
            raise ValueError("magnitude must be >= 0")
        if self.restart_after is not None:
            if self.kind is not FaultKind.WORKER_CRASH:
                raise ValueError("restart_after only applies to crashes")
            if self.detect_delay is None:
                raise ValueError("restart_after requires detect_delay "
                                 "(cleanup precedes restart)")
            if self.restart_after < self.detect_delay:
                raise ValueError("restart_after must be >= detect_delay")
        if self.detect_delay is not None:
            if self.kind not in CRASH_KINDS:
                raise ValueError(
                    f"detect_delay only applies to crash kinds, "
                    f"not {self.kind.value}")
            if self.detect_delay < 0:
                raise ValueError("detect_delay must be >= 0")
        if self.kind is FaultKind.BACKEND_CHURN and self.magnitude < 1:
            raise ValueError(
                "backend_churn magnitude is the churn size, must be >= 1")

    @property
    def needs_rng(self) -> bool:
        """True when firing this spec draws from the plan's RNG stream."""
        return self.target == "random" or self.jitter > 0

    def fire_times(self) -> Tuple[float, ...]:
        """Nominal occurrence times (before jitter)."""
        return tuple(self.at + i * self.period for i in range(self.count))

    def to_dict(self) -> dict:
        data = asdict(self)
        data["kind"] = self.kind.value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        known = dict(data)
        unknown = sorted(set(known) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown fault field(s): {', '.join(unknown)}")
        kind = known.pop("kind")
        return cls(kind=FaultKind(kind), **known)


@dataclass(frozen=True)
class FaultPlan:
    """A full, serializable fault schedule plus its randomness seed."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    @property
    def empty(self) -> bool:
        return not self.faults

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "faults": [spec.to_dict() for spec in self.faults]}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(faults=tuple(FaultSpec.from_dict(f)
                                for f in data.get("faults", ())),
                   seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str, indent: int = 2) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=indent))
            fh.write("\n")
