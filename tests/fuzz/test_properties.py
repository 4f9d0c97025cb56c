"""Hypothesis round-trip properties for the fuzzer's foundations.

Three contracts the fuzzer leans on:

- ``FaultPlan`` serialization is an identity over every *valid* plan
  (canonical JSON ⇔ one behaviour — the shrinker deduplicates by it).
- ``replay(arrivals(spec, seed))`` against an accepting sink opens one
  connection per arrival and delivers every request of each.
- ``TraceReplayer`` at ``rate=1.0`` replays a family trace (the one the
  fuzzer builds) against an accepting sink and accounts for every event.
"""

from hypothesis import given, strategies as st

from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.sim import Environment
from repro.sim.rng import RngRegistry
from repro.workloads import (FAMILIES, FixedFactory, TraceReplayer,
                             TrafficGenerator, WorkloadSpec, arrivals,
                             build_family_trace, family_names)

times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                  allow_infinity=False)
durations = st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
                      allow_infinity=False)
probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                          allow_infinity=False)
targets = st.one_of(st.none(), st.integers(min_value=0, max_value=63),
                    st.sampled_from(["busiest", "random"]))


@st.composite
def fault_specs(draw):
    """Valid FaultSpecs: only kind-applicable fields are drawn."""
    kind = draw(st.sampled_from(sorted(FaultKind, key=lambda k: k.value)))
    kwargs = {"kind": kind, "at": draw(times)}
    count = draw(st.integers(min_value=1, max_value=4))
    kwargs["count"] = count
    if count > 1:
        kwargs["period"] = draw(st.floats(min_value=1e-3, max_value=5.0))
    kwargs["jitter"] = draw(st.floats(min_value=0.0, max_value=0.5))
    if kind in (FaultKind.WORKER_HANG, FaultKind.SLOW_WORKER,
                FaultKind.WST_FREEZE, FaultKind.INSTANCE_DRAIN,
                FaultKind.BITMAP_SYNC_LOSS):
        kwargs["duration"] = draw(durations)
    if kind in (FaultKind.WORKER_HANG, FaultKind.WORKER_CRASH,
                FaultKind.SLOW_WORKER, FaultKind.WST_FREEZE,
                FaultKind.INSTANCE_CRASH, FaultKind.INSTANCE_DRAIN):
        kwargs["target"] = draw(targets)
    if kind in (FaultKind.WST_TORN_BURST, FaultKind.NIC_LOSS):
        kwargs["duration"] = draw(durations)
        kwargs["magnitude"] = draw(probabilities)
    elif kind is FaultKind.SLOW_WORKER:
        kwargs["magnitude"] = draw(st.floats(min_value=1.0, max_value=16.0))
    elif kind is FaultKind.BACKEND_CHURN:
        kwargs["magnitude"] = draw(st.integers(min_value=1, max_value=8))
    if kind in (FaultKind.WORKER_CRASH, FaultKind.INSTANCE_CRASH):
        detect = draw(st.floats(min_value=0.0, max_value=1.0))
        kwargs["detect_delay"] = detect
        if kind is FaultKind.WORKER_CRASH and draw(st.booleans()):
            kwargs["restart_after"] = detect + draw(
                st.floats(min_value=0.0, max_value=2.0))
    return FaultSpec(**kwargs)


@st.composite
def fault_plans(draw):
    return FaultPlan(
        faults=tuple(draw(st.lists(fault_specs(), max_size=4))),
        seed=draw(st.integers(min_value=0, max_value=2 ** 31)))


class TestPlanRoundTrip:
    @given(plan=fault_plans())
    def test_json_round_trip_is_identity(self, plan):
        assert FaultPlan.from_json(plan.to_json()) == plan

    @given(plan=fault_plans())
    def test_json_is_canonical(self, plan):
        text = plan.to_json()
        assert FaultPlan.from_json(text).to_json() == text

    @given(plan=fault_plans())
    def test_dict_round_trip_is_identity(self, plan):
        assert FaultPlan.from_dict(plan.to_dict()) == plan


class Sink:
    def __init__(self):
        self.opened = 0
        self.delivered = 0

    def connect(self, conn):
        self.opened += 1
        return True

    def deliver(self, conn, request):
        self.delivered += 1


class TestReplayDelivery:
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 20),
        conn_rate=st.floats(min_value=5.0, max_value=80.0),
        duration=st.floats(min_value=0.1, max_value=1.0),
        requests_per_conn=st.integers(min_value=1, max_value=5),
    )
    def test_replay_delivers_recorded_request_count(
            self, seed, conn_rate, duration, requests_per_conn):
        spec = WorkloadSpec(
            name="prop", conn_rate=conn_rate, duration=duration,
            factory=FixedFactory((100e-6,)),
            requests_per_conn=requests_per_conn, n_client_ips=16)
        spine = list(arrivals(spec, seed))

        env = Environment()
        sink = Sink()
        gen = TrafficGenerator(env, sink, None, spec)
        gen.replay(spine)
        env.run(until=duration + 1.0)

        assert sink.opened == gen.stats.connections_opened == len(spine)
        assert sink.delivered == len(spine) * requests_per_conn

    @given(family=st.sampled_from(family_names()),
           seed=st.integers(min_value=0, max_value=2 ** 20))
    def test_trace_replay_accounts_for_every_event(self, family, seed):
        registry = RngRegistry(seed)
        params = FAMILIES[family].sample(registry.stream("params"))
        trace = build_family_trace(family, params,
                                   registry.stream("workload"))
        n_requests = sum(1 for e in trace.events if e.kind == "request")

        env = Environment()
        sink = Sink()
        replayer = TraceReplayer(env, sink, trace, rate=1.0)
        replayer.start()
        env.run(until=trace.duration + 1.0)

        assert replayer.finished
        assert sink.delivered == n_requests
        assert replayer.replayed == len(trace)
        assert replayer.skipped == 0
        assert replayer.replayed + replayer.skipped == len(trace)
