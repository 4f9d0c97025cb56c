"""Tests for kernel flow hashing primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.oracles import ref_jhash_4tuple, ref_jhash_words
from repro.kernel import FourTuple, jhash_4tuple, jhash_words, reciprocal_scale


def _tuple(i=0):
    return FourTuple(0x0A000001 + i, 40000 + i, 0xC0A80001, 443)


class TestJhash:
    def test_deterministic(self):
        ft = _tuple()
        assert jhash_4tuple(ft) == jhash_4tuple(ft)

    def test_seed_changes_hash(self):
        ft = _tuple()
        assert jhash_4tuple(ft, 1) != jhash_4tuple(ft, 2)

    def test_different_tuples_differ(self):
        # Not guaranteed in general, but these specific tuples must differ
        # for the hash to be useful at all.
        hashes = {jhash_4tuple(_tuple(i)) for i in range(100)}
        assert len(hashes) > 95

    def test_32bit_range(self):
        for i in range(50):
            value = jhash_4tuple(_tuple(i))
            assert 0 <= value <= 0xFFFFFFFF

    def test_word_order_matters(self):
        assert jhash_words([1, 2, 3]) != jhash_words([3, 2, 1])

    def test_empty_words(self):
        # jhash2 of an empty array returns the mixed initval constant.
        assert 0 <= jhash_words([]) <= 0xFFFFFFFF

    def test_long_word_list(self):
        # Exercises the 3-word mixing loop.
        value = jhash_words(list(range(10)))
        assert 0 <= value <= 0xFFFFFFFF

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                    max_size=12))
    def test_always_32bit(self, words):
        assert 0 <= jhash_words(words) <= 0xFFFFFFFF


# Words past 32 bits (HRW keys, ``words + [replica]``) must hash as their
# low 32 bits do, at every length.
_WIDE = st.one_of(st.integers(min_value=0, max_value=0xFFFFFFFF),
                  st.integers(min_value=2 ** 32, max_value=2 ** 70))


class TestJhashMatchesReference:
    @given(st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.lists(_WIDE, min_size=n, max_size=n)), _WIDE)
    @settings(max_examples=300)
    def test_words(self, words, initval):
        assert jhash_words(words, initval) == ref_jhash_words(words, initval)

    @given(_WIDE, _WIDE, _WIDE, _WIDE, _WIDE)
    @settings(max_examples=200)
    def test_4tuple(self, sip, sport, dip, dport, initval):
        four = FourTuple(sip, sport, dip, dport)
        assert jhash_4tuple(four, initval) == ref_jhash_4tuple(four, initval)


class TestReciprocalScale:
    def test_range(self):
        for value in [0, 1, 12345, 0xFFFFFFFF]:
            for n in [1, 2, 7, 32, 64]:
                assert 0 <= reciprocal_scale(value, n) < n

    def test_zero_maps_to_zero(self):
        assert reciprocal_scale(0, 10) == 0

    def test_max_maps_to_last(self):
        assert reciprocal_scale(0xFFFFFFFF, 10) == 9

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_scale(1, 0)
        with pytest.raises(ValueError):
            reciprocal_scale(1, -3)

    def test_roughly_uniform(self):
        n = 8
        counts = [0] * n
        for i in range(4000):
            counts[reciprocal_scale(jhash_4tuple(_tuple(i)), n)] += 1
        expected = 4000 / n
        for c in counts:
            assert abs(c - expected) < expected * 0.35

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=1, max_value=1000))
    def test_property_in_range(self, value, n):
        assert 0 <= reciprocal_scale(value, n) < n

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_monotone_in_value(self, value):
        # reciprocal_scale is monotone non-decreasing in value for fixed n.
        n = 16
        if value < 0xFFFFFFFF:
            assert reciprocal_scale(value, n) <= reciprocal_scale(value + 1, n)


class TestFourTuple:
    def test_reversed(self):
        ft = FourTuple(1, 2, 3, 4)
        assert ft.reversed() == FourTuple(3, 4, 1, 2)
        assert ft.reversed().reversed() == ft
