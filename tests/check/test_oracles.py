"""Differential property suites: fast paths vs. obviously-correct oracles.

Every property is unpinned on ``max_examples`` where cheap enough, but the
core differential suites get an explicit multiplier so the chaos CI
profile (``HYPOTHESIS_PROFILE=chaos``) drives ≥10k total examples through
the kernel-primitive cross-checks.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmap import find_nth_set_bit, popcount64
from repro.core.ebpf import BpfArrayMap
from repro.core.scheduler import CascadingScheduler
from repro.core.wst import WorkerStatusTable
from repro.kernel.hash import (
    FourTuple,
    jhash_4tuple,
    jhash_words,
    reciprocal_scale,
)
from repro.check.oracles import (
    OracleMismatch,
    checked,
    ref_cascade,
    ref_find_nth_set_bit,
    ref_jhash_4tuple,
    ref_jhash_words,
    ref_popcount64,
    ref_reciprocal_scale,
)

# Scaled so that chaos CI (CHAOS_MAX_EXAMPLES=300 → 2500 per suite × 5
# suites) pushes >10k differential examples; the default profile stays
# laptop-quick.
DIFF_EXAMPLES = (2500 if os.environ.get("HYPOTHESIS_PROFILE") == "chaos"
                 else 50)

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
u16 = st.integers(min_value=0, max_value=(1 << 16) - 1)


class TestPopcountDifferential:
    @settings(max_examples=DIFF_EXAMPLES)
    @given(u64)
    def test_matches_reference(self, value):
        assert popcount64(value) == ref_popcount64(value)

    @settings(max_examples=DIFF_EXAMPLES)
    @given(u64, st.integers(min_value=0, max_value=63))
    def test_find_nth_matches_reference(self, value, rank):
        total = ref_popcount64(value)
        if rank >= total:
            with pytest.raises(ValueError):
                find_nth_set_bit(value, rank)
            with pytest.raises(ValueError):
                ref_find_nth_set_bit(value, rank)
        else:
            assert (find_nth_set_bit(value, rank)
                    == ref_find_nth_set_bit(value, rank))


class TestScaleDifferential:
    @settings(max_examples=DIFF_EXAMPLES)
    @given(u32, st.integers(min_value=1, max_value=1 << 20))
    def test_matches_reference(self, value, ep_ro):
        assert reciprocal_scale(value, ep_ro) == ref_reciprocal_scale(
            value, ep_ro)

    @given(u32, st.integers(max_value=0))
    def test_both_reject_nonpositive_range(self, value, ep_ro):
        with pytest.raises(ValueError):
            reciprocal_scale(value, ep_ro)
        with pytest.raises(ValueError):
            ref_reciprocal_scale(value, ep_ro)


class TestJhashDifferential:
    @settings(max_examples=DIFF_EXAMPLES)
    @given(st.lists(u32, min_size=0, max_size=12), u32)
    def test_words_match_reference(self, words, initval):
        assert jhash_words(words, initval) == ref_jhash_words(words, initval)

    @settings(max_examples=DIFF_EXAMPLES)
    @given(u32, u32, u16, u16, u32)
    def test_4tuple_matches_reference(self, sip, dip, sport, dport, seed):
        four = FourTuple(src_ip=sip, dst_ip=dip,
                         src_port=sport, dst_port=dport)
        assert jhash_4tuple(four, seed) == ref_jhash_4tuple(four, seed)


def _cascade_strategy():
    n = st.shared(st.integers(min_value=1, max_value=8), key="n")
    column = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    return st.tuples(
        n.flatmap(lambda k: st.lists(column, min_size=k, max_size=k)),
        n.flatmap(lambda k: st.lists(
            st.integers(min_value=0, max_value=500), min_size=k, max_size=k)),
        n.flatmap(lambda k: st.lists(
            st.integers(min_value=0, max_value=200), min_size=k, max_size=k)),
        st.floats(min_value=0.0, max_value=1.2, allow_nan=False))


class TestCascadeDifferential:
    @settings(max_examples=DIFF_EXAMPLES)
    @given(_cascade_strategy())
    def test_scheduler_matches_reference(self, data):
        times, events, conns, now = data
        n = len(times)
        wst = WorkerStatusTable(n, clock=lambda: 0.0)
        for rank in range(n):
            wst._times[rank] = times[rank]
            wst._events[rank] = events[rank]
            wst._conns[rank] = conns[rank]
        scheduler = CascadingScheduler(wst, BpfArrayMap(1))
        selected = scheduler.select_workers(wst.read_all(), now)
        want = ref_cascade(
            times, events, conns, now, scheduler.worker_ids,
            scheduler.config.hang_threshold, scheduler.config.theta_ratio,
            scheduler.config.filter_order, scheduler.capacity_limits)
        assert list(selected) == want


class TestCheckedWrapper:
    def test_returns_fast_value_on_agreement(self):
        wrapper = checked(popcount64, ref_popcount64, "popcount64")
        assert wrapper(0b1011) == 3

    def test_raises_on_value_divergence(self):
        wrapper = checked(lambda v: 0, ref_popcount64, "popcount64")
        with pytest.raises(OracleMismatch):
            wrapper(0b1011)

    def test_raises_when_only_fast_path_errors(self):
        def broken(v):
            raise ValueError("nope")

        wrapper = checked(broken, ref_popcount64, "popcount64")
        with pytest.raises(OracleMismatch):
            wrapper(1)

    def test_matching_exceptions_propagate_fast_error(self):
        wrapper = checked(find_nth_set_bit, ref_find_nth_set_bit, "nth")
        with pytest.raises(ValueError):
            wrapper(0b1, 5)


class TestPrequalReference:
    """ref_prequal_select: the naive pool re-scan the live oracle trusts."""

    def test_empty_and_all_stale_return_none(self):
        from repro.check.oracles import ref_prequal_select
        assert ref_prequal_select([], 1.0, 0.4, 0.84, "hcl") is None
        stale = [(0, 1, 0.001, 0.0)]
        assert ref_prequal_select(stale, 1.0, 0.4, 0.84, "hcl") is None

    def test_hot_sample_excluded_by_hcl_only(self):
        from repro.check.oracles import ref_prequal_select
        entries = [(w, 2, 0.002, 0.0) for w in range(12)]
        entries.append((12, 40, 0.0005, 0.0))  # low latency, spiked RIF
        assert ref_prequal_select(entries, 0.1, 0.4, 0.84, "hcl")[0] != 12
        assert ref_prequal_select(entries, 0.1, 0.4, 0.84, "latency")[0] == 12

    def test_rif_policy_prefers_low_rif(self):
        from repro.check.oracles import ref_prequal_select
        entries = [(0, 5, 0.0001, 0.0), (1, 1, 0.5, 0.0)]
        assert ref_prequal_select(entries, 0.1, 0.4, 0.84, "rif")[0] == 1

    def test_unknown_policy_rejected(self):
        from repro.check.oracles import ref_prequal_select
        with pytest.raises(ValueError):
            ref_prequal_select([(0, 1, 0.001, 0.0)], 0.1, 0.4, 0.84, "p2c")


class TestPrequalLiveOracle:
    def test_live_run_compares_every_selection(self):
        from repro.check import live_oracles
        from repro.experiments.common import run_case_cell
        from repro.lb.server import NotificationMode

        with live_oracles() as stats:
            result = run_case_cell(NotificationMode("prequal"), "case1",
                                   "light", n_workers=4, duration=0.5,
                                   seed=7)
        assert result.completed > 0
        assert stats.comparisons["prequal_select"] > 0

    def test_live_oracle_restores_selector(self):
        from repro.check import live_oracles
        from repro.prequal import PrequalSelector

        before = PrequalSelector.select
        with live_oracles():
            assert PrequalSelector.select is not before
        assert PrequalSelector.select is before
