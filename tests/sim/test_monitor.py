"""Tests for measurement instruments."""

import math
import random
import struct
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from repro.sim import BusyTracker, Environment, PeriodicSampler, Samples, TimeWeighted


class TestSamples:
    def test_empty(self):
        s = Samples()
        assert s.mean == 0.0
        assert s.percentile(50) == 0.0
        assert s.cdf() == []
        assert len(s) == 0

    def test_basic_stats(self):
        s = Samples()
        s.extend([1, 2, 3, 4, 5])
        assert s.mean == 3.0
        assert s.p50 == 3.0
        assert s.minimum == 1.0
        assert s.maximum == 5.0
        assert s.total == 15.0

    def test_percentile_interpolation(self):
        s = Samples()
        s.extend([0, 10])
        assert s.percentile(50) == 5.0
        assert s.percentile(25) == 2.5

    def test_percentile_bounds(self):
        s = Samples()
        s.add(1)
        with pytest.raises(ValueError):
            s.percentile(101)

    def test_single_sample(self):
        s = Samples()
        s.add(7)
        assert s.p99 == 7
        assert s.p50 == 7

    def test_cdf_monotone_ends_at_one(self):
        s = Samples()
        s.extend(range(1000))
        cdf = s.cdf(points=50)
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        assert cdf[-1][1] == 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=100))
    def test_property_percentiles_ordered(self, values):
        s = Samples()
        s.extend(values)
        eps = max(1e-9, s.maximum * 1e-12)  # interpolation rounding slack
        assert s.p50 <= s.p90 + eps
        assert s.p90 <= s.p99 + eps
        assert s.p99 <= s.p999 + eps
        assert s.p999 <= s.maximum + eps

    def test_sorted_cache_invalidated_by_add(self):
        s = Samples()
        s.extend([5, 1, 3])
        assert s.p50 == 3.0  # populates the cache
        s.add(0)
        assert s.minimum == 0.0
        assert s.percentile(0) == 0.0
        s.extend([10, 20])
        assert s.percentile(100) == 20.0

    def test_sorted_cache_survives_direct_values_mutation(self):
        # `values` is a public attribute some call sites extend directly;
        # a query after that must see the appended sample.
        s = Samples()
        s.extend([3, 1])
        assert s.p50 == 2.0
        s.values.append(100.0)
        assert s.percentile(100) == 100.0

    def test_cdf_consistent_after_mutation(self):
        s = Samples()
        s.extend([2, 1])
        assert s.cdf()[-1][0] == 2.0
        s.add(5)
        assert s.cdf()[-1][0] == 5.0


def _sorted_percentile(values, p):
    """The sort-based percentile ``Samples`` answered before it selected."""
    if not values:
        return 0.0
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    rank = (p / 100) * (len(data) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return data[low]
    frac = rank - low
    value = data[low] * (1 - frac) + data[high] * frac
    return min(max(value, data[low]), data[high])


def _bits(value):
    return struct.pack("<d", value)


#: Both zeros, the smallest subnormals and an ordinary latency.
_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-3]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: Up to 400 samples, half of them from a pool of up to 8, so ties are
#: common.
_SAMPLE_LISTS = st.lists(st.one_of(_FINITE, st.sampled_from(_SPECIALS)),
                         min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.one_of(st.sampled_from(pool), _FINITE),
                          min_size=1, max_size=400))


_PS = (0, 1, 50, 90, 99, 99.9, 100)


def _assert_matches_sort(values, ps):
    s = Samples()
    s.extend(values)
    for p in ps:
        assert _bits(s.percentile(p)) == _bits(
            _sorted_percentile(values, p)), p


class TestPercentileSelection:
    @given(values=_SAMPLE_LISTS, drawn=st.floats(min_value=0, max_value=100))
    @example(values=[-0.0, 0.0], drawn=100.0)
    @example(values=[-1.0] * 18 + [-0.0, 0.0], drawn=100.0)
    def test_property_equals_sort_bit_for_bit(self, values, drawn):
        _assert_matches_sort(values, _PS + (drawn,))

    def test_seeded_large_samples_equal_sort_bit_for_bit(self):
        # Long enough for heaps of every size up to half the samples.
        rng = random.Random(7)
        for n in (10, 20, 101, 1000):
            values = [rng.choice(_SPECIALS) if rng.random() < 0.5
                      else rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300)
                      for _ in range(n)]
            _assert_matches_sort(values, tuple(i / 10 for i in range(1001)))

    @given(zeros=st.lists(st.sampled_from([0.0, -0.0]), min_size=2,
                          max_size=40),
           others=st.integers(min_value=0, max_value=400),
           sign=st.sampled_from([1.0, -1.0]),
           drawn=st.floats(min_value=0, max_value=100))
    def test_property_signed_zero_ties_bit_for_bit(self, zeros, others,
                                                   sign, drawn):
        # With every other sample on one side the zeros fill one end of
        # the order, and ranks at the top end come from nlargest, which
        # breaks the -0.0/0.0 tie the other way from the stable sort.
        _assert_matches_sort([sign] * others + zeros, _PS + (drawn,))

    def test_memory_per_sample_and_per_percentile(self):
        s = Samples()
        tracemalloc.start()
        try:
            for i in range(100_000):
                s.add(i * 1e-6)  # a fresh float object per sample
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            s.percentile(99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 1_000 * 1024
        assert peak - held <= 256 * 1024


class TestTimeWeighted:
    def test_average_weights_by_duration(self):
        env = Environment()
        gauge = TimeWeighted(env, initial=0)
        gauge.set(10)
        env._now = 3.0
        gauge.set(0)
        env._now = 4.0
        assert gauge.average() == pytest.approx(7.5)

    def test_increment_decrement(self):
        env = Environment()
        gauge = TimeWeighted(env)
        gauge.increment()
        gauge.increment(2)
        gauge.decrement()
        assert gauge.level == 2

    def test_peak(self):
        env = Environment()
        gauge = TimeWeighted(env)
        gauge.set(5)
        gauge.set(2)
        assert gauge.peak == 5

    def test_zero_elapsed(self):
        env = Environment()
        gauge = TimeWeighted(env, initial=3)
        assert gauge.average() == 3

    def test_average_until_midpoint(self):
        env = Environment()
        gauge = TimeWeighted(env, initial=0)
        env._now = 1.0
        gauge.set(10)
        env._now = 4.0
        # [0,1] at level 0, [1,2] at level 10 -> mean 5 over [0,2].
        assert gauge.average(until=2.0) == pytest.approx(5.0)

    def test_average_until_before_last_set_does_not_go_negative(self):
        env = Environment()
        gauge = TimeWeighted(env, initial=0)
        env._now = 1.0
        gauge.set(10)
        env._now = 2.0
        # `until` precedes the last set(): the open interval contributes
        # nothing, instead of subtracting 10 * (0.5 - 1.0).
        assert gauge.average(until=0.5) == 0.0

    def test_average_until_exactly_last_change(self):
        env = Environment()
        gauge = TimeWeighted(env, initial=2)
        env._now = 1.0
        gauge.set(8)
        assert gauge.average(until=1.0) == pytest.approx(2.0)


class TestBusyTracker:
    def test_utilization(self):
        env = Environment()
        tracker = BusyTracker(env)
        tracker.begin()
        env._now = 1.0
        tracker.end()
        env._now = 2.0
        assert tracker.utilization() == pytest.approx(0.5)

    def test_nested_begin_is_idempotent(self):
        env = Environment()
        tracker = BusyTracker(env)
        tracker.begin()
        tracker.begin()
        env._now = 1.0
        tracker.end()
        assert tracker.busy_time() == pytest.approx(1.0)

    def test_busy_time_includes_open_interval(self):
        env = Environment()
        tracker = BusyTracker(env)
        tracker.begin()
        env._now = 2.0
        assert tracker.busy_time() == pytest.approx(2.0)
        assert tracker.busy

    def test_end_without_begin_is_noop(self):
        env = Environment()
        tracker = BusyTracker(env)
        tracker.end()
        assert tracker.busy_time() == 0.0

    def test_windowed_utilization_with_checkpoints(self):
        env = Environment()
        tracker = BusyTracker(env)
        tracker.begin()
        env._now = 1.0
        tracker.end()
        tracker.checkpoint()
        env._now = 2.0
        tracker.checkpoint()
        # Window [1, 2] was fully idle.
        assert tracker.utilization(since=1.0) == pytest.approx(0.0)

    def test_windowed_utilization_past_final_checkpoint(self):
        env = Environment()
        tracker = BusyTracker(env)
        tracker.begin()
        env._now = 1.0
        tracker.end()
        tracker.checkpoint()  # (1.0, busy 1.0); nothing recorded after
        env._now = 2.0
        tracker.begin()
        env._now = 4.0
        # Cumulative busy at t=3 is 2.0 (the open interval started at 2);
        # extrapolation through the in-progress busy interval recovers it.
        assert tracker._interpolate(3.0) == pytest.approx(2.0)
        # [3, 4] is entirely busy.
        assert tracker.utilization(since=3.0) == pytest.approx(1.0)

    def test_extrapolation_clamped_by_last_checkpoint(self):
        env = Environment()
        tracker = BusyTracker(env)
        tracker.begin()
        env._now = 1.0
        tracker.end()
        tracker.checkpoint()  # (1.0, busy 1.0)
        env._now = 4.0  # idle ever since
        # busy_time() - (now - when) would be negative; the checkpoint
        # value is the tighter bound.
        assert tracker._interpolate(2.0) == pytest.approx(1.0)
        assert tracker.utilization(since=2.0) == pytest.approx(0.0)

    def test_interpolation_within_checkpoints_unchanged(self):
        env = Environment()
        tracker = BusyTracker(env)
        tracker.begin()
        env._now = 2.0
        tracker.end()
        tracker.checkpoint()  # (2.0, busy 2.0)
        assert tracker._interpolate(1.0) == pytest.approx(1.0)
        assert tracker._interpolate(0.0) == 0.0


class TestPeriodicSampler:
    def test_samples_on_interval(self):
        env = Environment()
        values = iter(range(100))
        sampler = PeriodicSampler(env, 0.5, lambda: next(values))
        env.run(until=2.4)
        assert len(sampler.samples) == 4
        assert [t for t, _ in sampler.samples] == [0.5, 1.0, 1.5, 2.0]
        assert sampler.values() == [0, 1, 2, 3]

    def test_stop(self):
        env = Environment()
        sampler = PeriodicSampler(env, 0.1, lambda: 1.0)
        env.run(until=0.35)
        sampler.stop()
        env.run(until=2.0)
        assert len(sampler.samples) == 3

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            PeriodicSampler(Environment(), 0.0, lambda: 1.0)

    def test_stop_before_first_tick(self):
        env = Environment()
        sampler = PeriodicSampler(env, 1.0, lambda: 1.0)
        env.run(until=0.5)
        sampler.stop()
        env.run(until=5.0)
        assert sampler.samples == []

    def test_double_stop_is_noop(self):
        env = Environment()
        sampler = PeriodicSampler(env, 0.1, lambda: 1.0)
        env.run(until=0.25)
        sampler.stop()
        sampler.stop()  # must not raise
        assert len(sampler.samples) == 2

    def test_stop_before_run_records_nothing(self):
        env = Environment()
        sampler = PeriodicSampler(env, 0.1, lambda: 1.0)
        sampler.stop()
        env.run(until=1.0)
        assert sampler.samples == []
