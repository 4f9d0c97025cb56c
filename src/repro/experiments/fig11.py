"""Fig. 11 — delayed probes per day before/after the Hermes rollout.

Probes are sent to every worker of every device; delays above 200 ms are
SLA violations.  The hangs in production came from *load concentration*:
epoll exclusive piles long-lived connections onto a few workers, and when
synchronized bursts arrive on those connections the hot worker's event
loop backlogs past the SLA for every probe behind it.  Hermes spreads the
same connections so no single worker's backlog crosses the threshold —
after the canary rollout the daily delayed-probe count collapses (99.8% /
99% in the paper's two regions).

Old devices keep receiving probes until their long-lived connections
drain; ``conn_lifetime_days`` controls that tail (Region1's lasted 11
days, Region2 drained fast).

One simulated "day" is compressed to ``day_seconds`` of simulation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..cluster.canary import CanaryRelease
from ..fleet import Fleet
from ..kernel.hash import FourTuple
from ..kernel.tcp import Connection, ConnState, Request
from ..lb.probes import Prober
from ..lb.server import LBServer, NotificationMode
from ..sim.engine import Environment
from ..sim.rng import RngRegistry
from .registry import Claim, simple_experiment

__all__ = ["ProbeTimelineResult", "run_fig11"]


@dataclass
class ProbeTimelineResult:
    #: (day, delayed probe count).
    daily_delayed: List[Tuple[int, int]]
    rollout_day: int
    #: Fractional reduction of daily delayed probes after the rollout.
    reduction: float
    #: Days from rollout start until the last old device fully drained.
    drain_tail_days: float


class _LivedPool:
    """Keeps a population of long-lived connections through the fleet,
    replacing each connection when its lifetime expires."""

    def __init__(self, env: Environment, fleet: Fleet, rng,
                 population: int, mean_lifetime: float):
        self.env = env
        self.fleet = fleet
        self.rng = rng
        self.population = population
        self.mean_lifetime = mean_lifetime
        self.conns: List[Connection] = []
        env.process(self._seed(), name="lived-pool")

    def _open_one(self):
        conn = Connection(
            FourTuple(0x0A000000 + self.rng.randrange(1 << 20),
                      self.rng.randrange(1024, 65535), 0xC0A80001, 443),
            created_time=self.env.now)
        if self.fleet.connect(conn):
            self.conns.append(conn)
            self.env.process(self._lifetime(conn), name=f"life:{conn.id}")

    def _seed(self):
        for _ in range(self.population):
            self._open_one()
            yield self.env.timeout(
                self.rng.expovariate(self.population / self.mean_lifetime))
        while True:
            yield self.env.timeout(
                self.rng.expovariate(self.population / self.mean_lifetime))
            self._open_one()

    def _lifetime(self, conn: Connection):
        yield self.env.timeout(self.rng.expovariate(1 / self.mean_lifetime))
        if conn.state not in (ConnState.RESET, ConnState.REFUSED,
                              ConnState.CLOSED):
            conn.client_close()
        if conn in self.conns:
            self.conns.remove(conn)

    def surge(self, requests: int, event_time: float) -> None:
        """Synchronized burst on every live connection."""
        for conn in list(self.conns):
            if conn.state in (ConnState.RESET, ConnState.REFUSED,
                              ConnState.CLOSED):
                continue
            for _ in range(requests):
                self.fleet.deliver(conn, Request(
                    event_times=(event_time, event_time)))


def run_fig11(n_devices: int = 4, n_workers: int = 8,
              days: int = 12, day_seconds: float = 4.0,
              rollout_day: int = 4, seed: int = 41,
              population: int = 1200,
              conn_lifetime_days: float = 2.0,
              surges_per_day: int = 2) -> ProbeTimelineResult:
    env = Environment()
    registry = RngRegistry(seed)
    horizon = days * day_seconds

    def make_device(mode: NotificationMode, index: int, tag: str) -> LBServer:
        return LBServer(
            env, n_workers=n_workers, ports=[443], mode=mode,
            hash_seed=registry.stream(f"hash:{tag}{index}").randrange(2 ** 32),
            name=f"{tag}{index}")

    old_devices = [make_device(NotificationMode.EXCLUSIVE, i, "old")
                   for i in range(n_devices)]
    for device in old_devices:
        device.start()
    fleet = Fleet(env, old_devices, ingress="ecmp",
                  hash_seed=registry.stream("l4").randrange(2 ** 32))

    pool = _LivedPool(env, fleet, registry.stream("lived"),
                      population=population,
                      mean_lifetime=conn_lifetime_days * day_seconds)

    # Synchronized bursts: the surge pattern that exposes concentration.
    def schedule_surges():
        period = day_seconds / surges_per_day
        count = int(horizon / period)
        for i in range(1, count):
            env.schedule_callback(
                i * period, lambda: pool.surge(2, 0.4e-3))

    schedule_surges()

    probers: List[Prober] = []

    def attach_prober(device: LBServer) -> Prober:
        prober = Prober(env, device, interval=day_seconds / 50)
        prober.start()
        probers.append(prober)
        return prober

    for device in old_devices:
        attach_prober(device)

    def make_new(index: int) -> LBServer:
        device = make_device(NotificationMode.HERMES, index, "new")
        attach_prober(device)
        return device

    canary = CanaryRelease(fleet, old_devices, make_new,
                           batch_size=1, batch_interval=day_seconds / 2,
                           drain_poll=day_seconds / 10)
    env.schedule_callback(rollout_day * day_seconds, canary.start)

    daily: List[Tuple[int, int]] = []
    last_total = [0]

    def end_of_day(day: int):
        for prober in probers:
            prober._harvest()
        total = sum(p.report.delayed_or_lost for p in probers)
        daily.append((day, total - last_total[0]))
        last_total[0] = total

    for day in range(1, days + 1):
        env.schedule_callback(day * day_seconds - 1e-9,
                              lambda d=day: end_of_day(d))

    env.run(until=horizon)

    before = [count for day, count in daily if day <= rollout_day]
    after = [count for day, count in daily if day > rollout_day + 2]
    before_avg = sum(before) / len(before) if before else 0
    after_avg = sum(after) / len(after) if after else 0
    reduction = ((before_avg - after_avg) / before_avg
                 if before_avg else 0.0)
    drained_at = canary.completed_at or horizon
    drain_tail = max(0.0, drained_at / day_seconds - rollout_day)
    return ProbeTimelineResult(
        daily_delayed=daily, rollout_day=rollout_day,
        reduction=reduction, drain_tail_days=drain_tail)


def _rendered(result: ProbeTimelineResult) -> str:
    return (f"day -> delayed probes: {result.daily_delayed}\n"
            f"reduction after rollout: {result.reduction * 100:.1f}%  "
            f"drain tail: {result.drain_tail_days:.1f} days")


def _claims(merged: dict) -> Tuple[Claim, ...]:
    rollout = merged["rollout_day"]
    before = [count for day, count in merged["daily_delayed"]
              if 2 <= day <= rollout]
    daily = sum(before) / len(before) if before else 0.0
    return (
        Claim("delayed_probes_daily_before_rollout", daily >= 3,
              f"{daily:.1f} per day over days 2..{rollout}"),
        Claim("rollout_cuts_delayed_probes_over_95pct",
              merged["reduction"] > 0.95,
              f"reduction {merged['reduction']:.1%}"),
        Claim("long_lived_conns_drain_for_days",
              merged["drain_tail_days"] >= 1.0,
              f"drain tail {merged['drain_tail_days']:.1f} days"),
    )


def _runner(seed: int, params: dict) -> dict:
    from dataclasses import asdict
    result = run_fig11(
        n_devices=params.get("n_devices", 4),
        n_workers=params.get("n_workers", 8),
        days=params.get("days", 12),
        population=params.get("population", 1200), seed=seed)
    return dict(asdict(result), rendered=_rendered(result))


simple_experiment("fig11", "Delayed probes before/after rollout",
                  _runner, default_seed=41, claims=_claims,
                  tunables={"n_devices": "devices in the region",
                            "n_workers": "workers per device",
                            "days": "simulated days",
                            "population": "long-lived client connections"})
