"""Tests for eBPF map emulation."""

import pytest

from repro.core import BpfArrayMap, BpfError, ReuseportSockArray


class TestArrayMap:
    def test_zero_initialized(self):
        m = BpfArrayMap(4)
        assert all(m.lookup(i) == 0 for i in range(4))

    def test_update_and_lookup(self):
        m = BpfArrayMap(1)
        m.update_from_user(0, 0b1101)
        assert m.lookup(0) == 0b1101

    def test_key_bounds(self):
        m = BpfArrayMap(2)
        with pytest.raises(BpfError):
            m.lookup(2)
        for key in (-1, 2, 5):
            with pytest.raises(BpfError, match="out of range"):
                m.update_from_user(key, 1)
        assert m.user_updates == 0
        assert [m.read_from_user(k) for k in range(2)] == [0, 0]

    def test_value_width_enforced(self):
        m = BpfArrayMap(1)
        with pytest.raises(BpfError):
            m.update_from_user(0, 1 << 64)
        with pytest.raises(BpfError):
            m.update_from_user(0, -1)

    def test_invalid_size(self):
        with pytest.raises(BpfError):
            BpfArrayMap(0)

    def test_syscall_counting(self):
        m = BpfArrayMap(1)
        m.update_from_user(0, 1)
        m.update_from_user(0, 2)
        m.lookup(0)
        assert m.user_updates == 2
        assert m.kernel_lookups == 1

    def test_kernel_update_no_syscall(self):
        m = BpfArrayMap(1)
        m.update_from_kernel(0, 7)
        assert m.user_updates == 0
        assert m.lookup(0) == 7

    def test_kernel_update_value_width_enforced(self):
        # Regression: oversized kernel-side writes used to be masked to
        # 64 bits, letting kernel and user writes of the "same" value
        # diverge; both sides now reject alike.
        m = BpfArrayMap(1)
        with pytest.raises(BpfError):
            m.update_from_kernel(0, 1 << 64)
        with pytest.raises(BpfError):
            m.update_from_kernel(0, -1)
        assert m.read_from_user(0) == 0  # the bad write never landed
        m.update_from_kernel(0, (1 << 64) - 1)  # the max value still fits
        assert m.read_from_user(0) == (1 << 64) - 1

    def test_user_read(self):
        m = BpfArrayMap(1)
        m.update_from_kernel(0, 9)
        assert m.read_from_user(0) == 9


class TestSockArray:
    def test_install_and_select(self):
        sa = ReuseportSockArray(4)
        sa.install(2, 17)
        assert sa.select(2) == 17
        assert sa.installed(2)

    def test_empty_slot_is_none(self):
        sa = ReuseportSockArray(4)
        assert sa.select(0) is None
        assert not sa.installed(0)

    def test_remove(self):
        sa = ReuseportSockArray(2)
        sa.install(1, 5)
        sa.remove(1)
        assert sa.select(1) is None

    def test_bounds(self):
        sa = ReuseportSockArray(2)
        with pytest.raises(BpfError):
            sa.select(2)
        with pytest.raises(BpfError):
            sa.install(5, 0)

    def test_negative_socket_index_rejected(self):
        sa = ReuseportSockArray(1)
        with pytest.raises(BpfError):
            sa.install(0, -1)
