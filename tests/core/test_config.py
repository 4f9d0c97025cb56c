"""Tests for Hermes configuration validation."""

from dataclasses import replace

import pytest

from repro.core import HermesConfig, OverheadCosts


class TestValidation:
    def test_defaults_match_paper(self):
        config = HermesConfig()
        assert config.epoll_timeout == 0.005      # 5 ms (§5.3.2)
        assert config.theta_ratio == 0.5          # Fig. 15 optimum
        assert config.min_workers == 2            # Algorithm 2's n > 1
        assert config.group_size == 64            # 64-bit atomic word
        assert config.filter_order == ("time", "conn", "event")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            HermesConfig(hang_threshold=0.0)
        with pytest.raises(ValueError):
            HermesConfig(theta_ratio=-0.1)
        with pytest.raises(ValueError):
            HermesConfig(min_workers=0)
        with pytest.raises(ValueError):
            HermesConfig(epoll_timeout=-1)
        with pytest.raises(ValueError):
            HermesConfig(group_size=0)
        with pytest.raises(ValueError):
            HermesConfig(group_size=65)
        with pytest.raises(ValueError):
            HermesConfig(filter_order=("nope",))

    @pytest.mark.parametrize("max_events", [0, -3])
    def test_max_events_below_one_refused(self, max_events):
        # With no batch room the loop never harvests an event: a Hermes
        # cell would complete 0 requests with 0 failures.
        with pytest.raises(ValueError, match="max_events"):
            HermesConfig(max_events=max_events)
        assert HermesConfig(max_events=1).max_events == 1

    @pytest.mark.parametrize("field", [
        "counter_update", "wst_read_per_worker", "scheduler_per_worker",
        "map_update_syscall", "ebpf_dispatch"])
    @pytest.mark.parametrize("value", [
        -1e-9, float("nan"), float("inf"), float("-inf")])
    def test_costs_must_be_finite_and_non_negative(self, field, value):
        # Such a cost would never be charged (only a positive pending
        # total is), so it is refused rather than silently ignored.
        with pytest.raises(ValueError, match=field):
            OverheadCosts(**{field: value})
        assert getattr(OverheadCosts(**{field: 0.0}), field) == 0.0

    def test_with_overrides(self):
        config = HermesConfig()
        tweaked = replace(config, theta_ratio=1.0)
        assert tweaked.theta_ratio == 1.0
        assert tweaked.epoll_timeout == config.epoll_timeout
        assert config.theta_ratio == 0.5  # original untouched

    def test_frozen(self):
        config = HermesConfig()
        with pytest.raises(Exception):
            config.theta_ratio = 0.9

    def test_costs_positive(self):
        costs = OverheadCosts()
        assert costs.counter_update > 0
        assert costs.map_update_syscall > costs.counter_update
