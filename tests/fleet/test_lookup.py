"""Properties of the version-stamped backend map and lookup policies."""

import pytest
from hypothesis import given, strategies as st

from repro.fleet import (BackendMap, FleetPolicy, StatefulLookup,
                         StatelessLookup, make_lookup)
from repro.kernel import FourTuple

flow_hashes = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _flow(i):
    return FourTuple(0x0A000000 + (i % 251), 1024 + (i * 7) % 50000,
                     0xC0A80001, 443)


class TestBackendMap:
    def test_versioning(self):
        bmap = BackendMap([0, 1, 2, 3])
        assert bmap.version == 0
        assert bmap.update([0, 1, 2, 4]) == 1
        assert bmap.version == 1
        assert bmap.backends == [0, 1, 2, 4]

    @given(flow_hashes)
    def test_resolves_into_backend_set(self, flow_hash):
        bmap = BackendMap([3, 7, 11])
        assert bmap.backend_for(flow_hash) in (3, 7, 11)
        assert 0 <= bmap.slot_of(flow_hash) < bmap.n_slots

    @given(flow_hashes)
    def test_old_versions_frozen(self, flow_hash):
        # PCC's foundation: a published version never changes, however
        # many updates follow it.
        bmap = BackendMap([0, 1, 2, 3])
        before = bmap.backend_for(flow_hash, version=0)
        bmap.update([0, 1, 2])
        bmap.update([0, 1, 2, 9, 10])
        assert bmap.backend_for(flow_hash, version=0) == before

    def test_hrw_minimal_disruption_on_remove(self):
        # Rendezvous hashing, exact form: a slot only changes owner if
        # its owner was removed.
        bmap = BackendMap([0, 1, 2, 3], n_slots=256)
        old_table = list(bmap._tables[0])
        bmap.update([0, 1, 2])
        new_table = bmap._tables[1]
        for slot in range(256):
            if new_table[slot] != old_table[slot]:
                assert old_table[slot] == 3

    def test_hrw_minimal_disruption_on_add(self):
        bmap = BackendMap([0, 1, 2, 3], n_slots=256)
        old_table = list(bmap._tables[0])
        bmap.update([0, 1, 2, 3, 4])
        new_table = bmap._tables[1]
        for slot in range(256):
            if new_table[slot] != old_table[slot]:
                assert new_table[slot] == 4

    def test_equal_maps_share_frozen_tables(self):
        # The HRW table is memoized per process: maps built with the same
        # parameters get equal tables, and one map's update never reaches
        # the other's versions.
        a = BackendMap([0, 1, 2, 3], hash_seed=77)
        b = BackendMap([0, 1, 2, 3], hash_seed=77)
        assert a._tables == b._tables
        b.update([0, 1, 2])
        b_before = [list(table) for table in b._tables]
        a.update([0, 1, 2])
        a.update([0, 1, 2, 9])
        assert a._tables[1] == b._tables[1]
        assert [list(table) for table in b._tables] == b_before
        assert b.version == 1
        assert b.backends == [0, 1, 2]
        for table in a._tables + b._tables:
            assert isinstance(table, tuple)
        assert BackendMap([0, 1, 2, 3], hash_seed=78)._tables != a._tables[:1]

    def test_validation(self):
        with pytest.raises(ValueError):
            BackendMap([])
        with pytest.raises(ValueError):
            BackendMap([0], n_slots=0)
        with pytest.raises(ValueError):
            BackendMap([0, 1]).update([])


class TestStatelessLookup:
    def test_any_instance_resolves_identically(self):
        # The failover-survival property: an instance that never saw the
        # connection recomputes the same backend from (flow, version).
        bmap = BackendMap([0, 1, 2, 3])
        lookup = StatelessLookup(bmap, hash_seed=99)
        for i in range(100):
            ft = _flow(i)
            backend, version = lookup.assign(ft, "lb0", conn_id=i)
            assert lookup.resolve(ft, "lb5", i, version) == backend
            assert lookup.resolve(ft, "never-seen", i, version) == backend

    def test_survives_backend_map_updates(self):
        bmap = BackendMap([0, 1, 2, 3])
        lookup = StatelessLookup(bmap)
        ft = _flow(1)
        backend, version = lookup.assign(ft, "lb0", conn_id=1)
        bmap.update([0, 1])
        assert lookup.resolve(ft, "lb0", 1, version) == backend

    def test_drop_instance_loses_nothing(self):
        lookup = StatelessLookup(BackendMap([0, 1]))
        lookup.assign(_flow(0), "lb0", conn_id=0)
        assert lookup.drop_instance("lb0") == 0
        assert lookup.stateless is True


class TestStatefulLookup:
    def test_assign_matches_stateless_computation(self):
        # Same rendezvous math, so the policies are latency-comparable.
        bmap = BackendMap([0, 1, 2, 3])
        stateful = StatefulLookup(bmap, hash_seed=99)
        stateless = StatelessLookup(bmap, hash_seed=99)
        for i in range(50):
            ft = _flow(i)
            assert stateful.assign(ft, "lb0", i) == \
                stateless.assign(ft, "lb0", i)

    def test_table_dies_with_instance(self):
        lookup = StatefulLookup(BackendMap([0, 1, 2]))
        for i in range(10):
            lookup.assign(_flow(i), "lb0", conn_id=i)
        lookup.assign(_flow(99), "lb1", conn_id=99)
        assert lookup.table_size("lb0") == 10
        assert lookup.drop_instance("lb0") == 10
        assert lookup.entries_lost == 10
        assert lookup.resolve(_flow(0), "lb0", 0, 0) is None
        # The other instance's table is untouched.
        assert lookup.resolve(_flow(99), "lb1", 99, 0) is not None

    def test_migrate_moves_one_entry(self):
        lookup = StatefulLookup(BackendMap([0, 1, 2]))
        backend, version = lookup.assign(_flow(5), "lb0", conn_id=5)
        lookup.migrate(5, "lb0", "lb1")
        assert lookup.resolve(_flow(5), "lb0", 5, version) is None
        assert lookup.resolve(_flow(5), "lb1", 5, version) == backend

    def test_forget(self):
        lookup = StatefulLookup(BackendMap([0, 1]))
        lookup.assign(_flow(0), "lb0", conn_id=0)
        lookup.forget("lb0", 0)
        assert lookup.resolve(_flow(0), "lb0", 0, 0) is None
        lookup.forget("lb0", 12345)  # unknown ids are a no-op
        lookup.forget("ghost", 0)


class TestMakeLookup:
    def test_spellings(self):
        bmap = BackendMap([0, 1])
        assert isinstance(make_lookup("stateless", bmap), StatelessLookup)
        assert isinstance(make_lookup("stateful", bmap), StatefulLookup)
        assert isinstance(make_lookup(FleetPolicy.STATELESS, bmap),
                          StatelessLookup)
        assert isinstance(make_lookup(FleetPolicy.STATEFUL, bmap),
                          StatefulLookup)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_lookup("maglev", BackendMap([0]))
