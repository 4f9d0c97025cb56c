"""The trace-driven workload family library."""

import pytest

from repro.check.golden import fingerprint
from repro.sim import Environment
from repro.sim.rng import RngRegistry
from repro.workloads import (
    FAMILIES,
    TraceReplayer,
    build_family_trace,
    family_names,
)

EXPECTED = {"diurnal", "flash_crowd", "heavy_hitter_churn",
            "fanout_chain", "longlived_surge"}


class Sink:
    def __init__(self):
        self.opened = 0
        self.delivered = 0

    def connect(self, conn):
        self.opened += 1
        return True

    def deliver(self, conn, request):
        self.delivered += 1


class TestRegistry:
    def test_all_families_registered(self):
        assert set(family_names()) == EXPECTED

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError, match="unknown workload family"):
            build_family_trace("nope", {}, RngRegistry(1).stream("x"))


@pytest.mark.pin
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_default_trace_is_pinned(name, pin):
    """Each family's trace at its defaults, as the fuzzer draws it from a
    ``"workload"`` stream."""
    trace = FAMILIES[name].build({}, RngRegistry(7).stream("workload"))
    pin(f"family/{name}", fingerprint(trace.to_dict()))


@pytest.mark.parametrize("name", sorted(EXPECTED))
class TestFamilies:
    def small(self, name):
        """Fast, deterministic small-scale parameters per family."""
        overrides = {
            "diurnal": {"duration": 0.3, "base_rate": 40.0},
            "flash_crowd": {"duration": 0.3, "base_rate": 30.0,
                            "spike_at": 0.1, "spike_duration": 0.1},
            "heavy_hitter_churn": {"duration": 0.3, "rate": 50.0},
            "fanout_chain": {"duration": 0.3, "root_rate": 15.0,
                             "fanout": 2, "depth": 2},
            "longlived_surge": {"n_connections": 40, "connect_window": 0.1,
                                "surge_at": 0.2, "surge_requests": 2},
        }[name]
        params = dict(FAMILIES[name].defaults)
        params.update(overrides)
        return params

    def test_build_is_deterministic(self, name):
        family = FAMILIES[name]
        params = self.small(name)
        t1 = family.build(params, RngRegistry(5).stream("w"))
        t2 = family.build(params, RngRegistry(5).stream("w"))
        assert t1.to_dict() == t2.to_dict()
        assert len(t1) > 0

    def test_events_are_well_formed(self, name):
        trace = FAMILIES[name].build(self.small(name),
                                     RngRegistry(5).stream("w"))
        kinds = {"open", "request", "close"}
        opens = closes = 0
        for event in trace.events:
            assert event.kind in kinds
            assert event.time >= 0
            if event.kind == "open":
                opens += 1
            elif event.kind == "close":
                closes += 1
            else:
                assert event.size is not None
                assert event.event_times is not None
        assert opens == closes
        assert opens >= 1

    def test_sample_params_build(self, name):
        family = FAMILIES[name]
        reg = RngRegistry(9)
        params = family.sample(reg.stream("p"))
        if name == "longlived_surge":  # keep the test fast
            params["n_connections"] = 50
        trace = family.build(params, reg.stream("w"))
        assert len(trace) > 0

    def test_shrink_produces_smaller_candidates(self, name):
        family = FAMILIES[name]
        params = family.sample(RngRegistry(3).stream("p"))
        candidates = family.shrink(params)
        assert candidates
        for candidate in candidates:
            assert candidate != params
            # Exactly one key changed, and it shrank toward its floor.
            changed = [k for k in params if candidate[k] != params[k]]
            assert len(changed) == 1
            key = changed[0]
            assert candidate[key] < params[key]
            assert candidate[key] >= family.shrinkers[key]

    def test_replays_against_sink(self, name):
        trace = FAMILIES[name].build(self.small(name),
                                     RngRegistry(5).stream("w"))
        env = Environment()
        sink = Sink()
        replayer = TraceReplayer(env, sink, trace)
        replayer.start()
        env.run(until=trace.duration + 1.0)
        assert replayer.finished
        assert replayer.replayed == len(trace)
        assert replayer.skipped == 0
        n_requests = sum(1 for e in trace.events if e.kind == "request")
        assert sink.delivered == n_requests


class TestSurgeScale:
    def test_default_is_10x_fig3(self):
        # Fig. 3 runs 400 long-lived connections; the family's default
        # surge population is 10x that.
        assert FAMILIES["longlived_surge"].defaults["n_connections"] == 4000
