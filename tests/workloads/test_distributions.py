"""Tests for quantile samplers and request factories."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.tcp import Request
from repro.sim import RngRegistry
from repro.workloads import FixedFactory, QuantileSampler, RequestFactory
from repro.workloads.cases import CASES
from repro.workloads.regions import REGIONS


def rng():
    return RngRegistry(13).stream("dist")


# -- frozen reference implementations -----------------------------------------
# The straightforward forms of QuantileSampler.quantile and
# RequestFactory.build.  The fast paths must match them bit for bit: same
# values, same RNG draws in the same order.

def reference_quantile(sampler, q):
    """Linear scan over the knot intervals; the first match wins."""
    if not 0 <= q <= 1:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    qs, lvs = sampler._qs, sampler._log_vs
    for i in range(len(qs) - 1):
        if qs[i] <= q <= qs[i + 1]:
            span = qs[i + 1] - qs[i]
            frac = 0.0 if span == 0 else (q - qs[i]) / span
            return math.exp(lvs[i] + frac * (lvs[i + 1] - lvs[i]))
    return math.exp(lvs[-1])


def reference_build(factory, rng, tenant_id=0):
    total = reference_quantile(factory.service_sampler, rng.random())
    n_events = rng.randint(factory.min_events, factory.max_events)
    if n_events == 1:
        event_times = (total,)
    else:
        weights = [rng.random() + 0.25 for _ in range(n_events)]
        scale = total / sum(weights)
        event_times = tuple(w * scale for w in weights)
    size = (int(reference_quantile(factory.size_sampler, rng.random()))
            if factory.size_sampler is not None else 512)
    return Request(tenant_id=tenant_id, size_bytes=size,
                   event_times=event_times, handler=factory.handler)


def all_samplers():
    """Every sampler the case and region definitions build."""
    samplers = []
    for case in CASES.values():
        samplers.append(case.service_sampler())
        samplers.append(QuantileSampler(list(case.size_knots)))
    for region in REGIONS.values():
        samplers.append(region.size_sampler())
        samplers.append(region.time_sampler())
    return samplers


SAMPLERS = all_samplers()


class TestQuantileMatchesLinearScan:
    def test_every_knot_and_both_ends(self):
        for sampler in SAMPLERS:
            for q in sampler._qs:
                assert sampler.quantile(q) == reference_quantile(sampler, q)

    @given(q=st.floats(min_value=0.0, max_value=1.0),
           index=st.integers(min_value=0, max_value=len(SAMPLERS) - 1))
    @settings(max_examples=300, deadline=None)
    def test_any_q(self, q, index):
        sampler = SAMPLERS[index]
        assert sampler.quantile(q) == reference_quantile(sampler, q)

    @pytest.mark.parametrize("q", [-1e-300, -1.0, 1.0000000000000002, 2.0,
                                   float("nan"), float("inf")])
    def test_out_of_range_raises(self, q):
        with pytest.raises(ValueError):
            SAMPLERS[0].quantile(q)


class TestBuildMatchesReference:
    @pytest.mark.parametrize("events", [(1, 1), (1, 2), (1, 3), (2, 5)])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fields_and_rng_state(self, case, events):
        definition = CASES[case]
        for sizes in (QuantileSampler(list(definition.size_knots)), None):
            factory = RequestFactory(
                service_sampler=definition.service_sampler(),
                size_sampler=sizes, min_events=events[0],
                max_events=events[1], handler=case)
            fast, slow = rng(), rng()
            for i in range(300):
                assert factory.build(fast, tenant_id=i % 3) \
                    == reference_build(factory, slow, tenant_id=i % 3)
                assert fast.getstate() == slow.getstate()


class TestQuantileSampler:
    def test_hits_knots_exactly(self):
        sampler = QuantileSampler([(0.5, 10.0), (0.9, 100.0), (0.99, 1000.0)])
        assert sampler.quantile(0.5) == pytest.approx(10.0)
        assert sampler.quantile(0.9) == pytest.approx(100.0)
        assert sampler.quantile(0.99) == pytest.approx(1000.0)

    def test_log_linear_between_knots(self):
        sampler = QuantileSampler([(0.5, 10.0), (0.9, 1000.0)])
        # Geometric midpoint at the arithmetic quantile midpoint.
        assert sampler.quantile(0.7) == pytest.approx(100.0)

    def test_floor_and_cap(self):
        sampler = QuantileSampler([(0.5, 8.0)], floor=1.0, cap=100.0)
        assert sampler.quantile(0.0) == pytest.approx(1.0)
        assert sampler.quantile(1.0) == pytest.approx(100.0)

    def test_default_floor_and_cap(self):
        sampler = QuantileSampler([(0.5, 8.0)])
        assert sampler.quantile(0.0) == pytest.approx(2.0)
        assert sampler.quantile(1.0) == pytest.approx(12.0)

    def test_monotone(self):
        sampler = QuantileSampler([(0.5, 5.0), (0.9, 80.0), (0.99, 300.0)])
        values = [sampler.quantile(q / 100) for q in range(101)]
        assert values == sorted(values)

    def test_sampled_quantiles_match(self):
        sampler = QuantileSampler([(0.5, 5.0), (0.9, 80.0), (0.99, 300.0)])
        r = rng()
        samples = sorted(sampler.sample(r) for _ in range(20000))
        assert samples[10000] == pytest.approx(5.0, rel=0.1)
        assert samples[18000] == pytest.approx(80.0, rel=0.15)

    def test_mean_closed_form_matches_samples(self):
        sampler = QuantileSampler([(0.5, 5.0), (0.9, 80.0), (0.99, 300.0)])
        r = rng()
        empirical = sum(sampler.sample(r) for _ in range(60000)) / 60000
        assert sampler.mean() == pytest.approx(empirical, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileSampler([])
        with pytest.raises(ValueError):
            QuantileSampler([(1.5, 10.0)])
        with pytest.raises(ValueError):
            QuantileSampler([(0.9, 10.0), (0.5, 5.0)])  # not increasing
        with pytest.raises(ValueError):
            QuantileSampler([(0.5, 10.0), (0.9, 5.0)])  # values decrease
        with pytest.raises(ValueError):
            QuantileSampler([(0.5, -1.0)])
        with pytest.raises(ValueError):
            QuantileSampler([(0.5, 1.0)]).quantile(2.0)

    @given(st.lists(st.floats(min_value=0.01, max_value=1000),
                    min_size=2, max_size=5, unique=True))
    @settings(max_examples=50)
    def test_property_sample_within_floor_cap(self, raw_values):
        values = sorted(raw_values)
        qs = [0.3 + 0.6 * i / len(values) for i in range(len(values))]
        sampler = QuantileSampler(list(zip(qs, values)))
        lo, hi = sampler.quantile(0.0), sampler.quantile(1.0)
        r = rng()
        for _ in range(50):
            assert lo - 1e-9 <= sampler.sample(r) <= hi + 1e-9


class TestRequestFactory:
    def make(self, **kwargs):
        sampler = QuantileSampler([(0.5, 0.001), (0.99, 0.01)])
        return RequestFactory(service_sampler=sampler, **kwargs)

    def test_event_times_sum_to_total(self):
        factory = self.make(min_events=3, max_events=3)
        r = rng()
        for _ in range(20):
            request = factory.build(r)
            assert len(request.event_times) == 3
            assert sum(request.event_times) > 0

    def test_event_count_in_range(self):
        factory = self.make(min_events=2, max_events=5)
        r = rng()
        counts = {factory.build(r).n_events for _ in range(100)}
        assert counts <= {2, 3, 4, 5}
        assert len(counts) > 1

    def test_tenant_tagging(self):
        factory = self.make()
        assert factory.build(rng(), tenant_id=7).tenant_id == 7

    def test_handler_label(self):
        factory = self.make(handler="ssl")
        assert factory.build(rng()).handler == "ssl"

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(min_events=0)
        with pytest.raises(ValueError):
            self.make(min_events=3, max_events=2)

    def test_size_sampler_used(self):
        sampler = QuantileSampler([(0.5, 0.001)])
        sizes = QuantileSampler([(0.5, 400.0), (0.99, 4000.0)])
        factory = RequestFactory(service_sampler=sampler,
                                 size_sampler=sizes)
        r = rng()
        values = [factory.build(r).size_bytes for _ in range(200)]
        assert min(values) >= 100
        assert max(values) > 500


class TestFixedFactory:
    def test_deterministic(self):
        factory = FixedFactory(event_times=(0.01, 0.02), size_bytes=99)
        request = factory.build(rng(), tenant_id=3)
        assert request.event_times == (0.01, 0.02)
        assert request.size_bytes == 99
        assert request.tenant_id == 3
