"""Properties of the ingress tier: ECMP spray and the consistent-hash ring.

The ring's headline guarantees are *exact*, not statistical, so the
hypothesis properties assert them exactly: adding an instance only pulls
flows onto the newcomer, removing one only displaces the flows it owned,
and everything is a pure function of ``(seed, membership, flow)``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.fleet import (ConsistentHashRing, EcmpIngress, INGRESS_POLICIES,
                         make_ingress)
from repro.kernel import FourTuple, jhash_4tuple, reciprocal_scale


class FakeInstance:
    """The minimum surface the ingress tier needs: a stable name."""

    def __init__(self, name, load=0):
        self.name = name
        self.load = load
        self.workers = ()

    def __repr__(self):
        return f"<{self.name}>"


def _flow(i):
    return FourTuple(0x0A000000 + (i % 251), 1024 + (i * 7) % 50000,
                     0xC0A80001, 443)


flows = st.integers(min_value=0, max_value=10_000).map(_flow)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
names = st.lists(st.integers(min_value=0, max_value=50).map(lambda i: f"lb{i}"),
                 min_size=2, max_size=8, unique=True)


class TestEcmp:
    def test_matches_kernel_spray(self):
        # Bit-identical to the kernel-style inline flow-hash spray.
        ingress = EcmpIngress(hash_seed=1234)
        active = [FakeInstance(f"lb{i}") for i in range(5)]
        for i in range(200):
            ft = _flow(i)
            expected = active[reciprocal_scale(jhash_4tuple(ft, 1234), 5)]
            assert ingress.pick(ft, active) is expected

    @given(flows, seeds)
    def test_deterministic(self, ft, seed):
        active = [FakeInstance(f"lb{i}") for i in range(4)]
        a = EcmpIngress(seed).pick(ft, active)
        b = EcmpIngress(seed).pick(ft, active)
        assert a is b

    def test_full_remap_on_resize_is_the_point(self):
        # ECMP's known weakness (why the ring exists): shrinking the set
        # remaps a large share of the flow space.
        ingress = EcmpIngress()
        active = [FakeInstance(f"lb{i}") for i in range(8)]
        moved = sum(
            1 for i in range(500)
            if ingress.pick(_flow(i), active)
            is not ingress.pick(_flow(i), active[:-1])
            and ingress.pick(_flow(i), active) is not active[-1])
        assert moved > 100


class TestRing:
    @given(names, flows, seeds)
    def test_deterministic_across_fresh_rings(self, instance_names, ft, seed):
        active = [FakeInstance(n) for n in instance_names]
        a = ConsistentHashRing(hash_seed=seed).pick(ft, active)
        b = ConsistentHashRing(hash_seed=seed).pick(ft, active)
        assert a.name == b.name

    @given(names)
    def test_vnode_points_deterministic(self, instance_names):
        ring = ConsistentHashRing(hash_seed=7, vnodes=16)
        other = ConsistentHashRing(hash_seed=7, vnodes=16)
        for name in instance_names:
            assert ring.points_for(name) == other.points_for(name)

    @given(names)
    def test_add_only_pulls_flows_to_newcomer(self, instance_names):
        # THE consistent-hashing guarantee, exact form: a flow whose owner
        # changed when an instance joined must now be owned by the joiner.
        ring = ConsistentHashRing(hash_seed=7)
        active = [FakeInstance(n) for n in instance_names]
        newcomer = FakeInstance("joiner")
        grown = active + [newcomer]
        for i in range(120):
            ft = _flow(i)
            before = ring.pick(ft, active)
            after = ring.pick(ft, grown)
            if after is not before:
                assert after is newcomer

    @given(names)
    def test_remove_only_displaces_victims_flows(self, instance_names):
        ring = ConsistentHashRing(hash_seed=7)
        active = [FakeInstance(n) for n in instance_names]
        victim = active[-1]
        shrunk = active[:-1]
        for i in range(120):
            ft = _flow(i)
            before = ring.pick(ft, active)
            after = ring.pick(ft, shrunk)
            if before is not victim:
                assert after is before

    def test_disruption_bounded_versus_ecmp(self):
        # Quantified: removing 1 of 8 instances moves ~1/8 of the flow
        # space on the ring but far more under ECMP.
        ring = ConsistentHashRing(hash_seed=7)
        ecmp = EcmpIngress(hash_seed=7)
        active = [FakeInstance(f"lb{i}") for i in range(8)]
        shrunk = active[:-1]
        n = 600
        ring_moved = sum(1 for i in range(n)
                         if ring.pick(_flow(i), active)
                         is not ring.pick(_flow(i), shrunk))
        ecmp_moved = sum(1 for i in range(n)
                         if ecmp.pick(_flow(i), active)
                         is not ecmp.pick(_flow(i), shrunk))
        assert ring_moved < ecmp_moved
        # K/N of the keyspace plus generous slack for vnode variance.
        assert ring_moved / n < 2.5 / 8

    @given(flows, seeds)
    def test_single_instance_agrees_with_ecmp(self, ft, seed):
        # With one instance there is nothing to choose: every policy must
        # land on it (the fleet degenerates to a single device).
        only = [FakeInstance("solo")]
        assert ConsistentHashRing(hash_seed=seed).pick(ft, only) is only[0]
        assert EcmpIngress(seed).pick(ft, only) is only[0]

    def test_membership_cache_keyed_by_names(self):
        ring = ConsistentHashRing(hash_seed=7)
        a = [FakeInstance("a"), FakeInstance("b")]
        b = [FakeInstance("a"), FakeInstance("c")]
        ring.pick(_flow(0), a)
        ring.pick(_flow(0), b)
        assert len(ring._rings) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(vnodes=0)
        with pytest.raises(ValueError):
            ConsistentHashRing(load_factor=1.0)


class TestBoundedLoad:
    def test_overloaded_instance_skipped(self):
        # One instance holds all the load: capacity is ~5/8 of the total,
        # so the hot instance is always at capacity and every flow must
        # land on the idle one.
        hot = FakeInstance("hot", load=100)
        cold = FakeInstance("cold", load=0)
        ring = ConsistentHashRing(hash_seed=7, load_factor=1.25,
                                  load_of=lambda inst: inst.load)
        active = [hot, cold]
        assert all(ring.pick(_flow(i), active) is cold for i in range(100))

    def test_balanced_load_follows_plain_ring(self):
        insts = [FakeInstance(f"lb{i}", load=10) for i in range(4)]
        plain = ConsistentHashRing(hash_seed=7)
        bounded = ConsistentHashRing(hash_seed=7, load_factor=2.0,
                                     load_of=lambda inst: inst.load)
        for i in range(200):
            assert bounded.pick(_flow(i), insts) is plain.pick(_flow(i), insts)


class TestMakeIngress:
    def test_spellings(self):
        assert make_ingress("ecmp").name == "ecmp"
        assert make_ingress("ring").name == "ring"
        assert make_ingress("ring_bounded").name == "ring_bounded"
        assert set(INGRESS_POLICIES) == {"ecmp", "ring", "ring_bounded"}

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown ingress policy"):
            make_ingress("maglev")
