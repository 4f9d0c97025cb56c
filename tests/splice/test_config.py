"""SpliceConfig: defaults, validation, override coercion."""

from dataclasses import replace

import pytest

from repro.splice import SpliceConfig, config_from_overrides


class TestDefaults:
    def test_kernel_path_is_cheaper_per_byte(self):
        config = SpliceConfig()
        # The whole premise: kernel forwarding undercuts a userspace copy.
        assert config.per_byte_cost < 5e-9
        assert config.splice_after >= 1
        assert config.sockmap_capacity >= 1

    def test_tunables_round_trip(self):
        config = SpliceConfig()
        assert SpliceConfig(**config.tunables()) == config

    def test_with_overrides(self):
        config = replace(SpliceConfig(), splice_after=3, sockmap_capacity=8)
        assert config.splice_after == 3
        assert config.sockmap_capacity == 8
        assert config.setup_cost == SpliceConfig().setup_cost


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("splice_after", 0),
        ("setup_cost", -1e-6),
        ("teardown_cost", -1e-6),
        ("per_request_cost", -1e-6),
        ("per_byte_cost", -1e-9),
        ("sockmap_capacity", 0),
        ("weight_refresh", 0.0),
        ("max_weight", 0),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            SpliceConfig(**{field: value})


class TestOverrides:
    def test_strings_coerce_to_declared_types(self):
        config = config_from_overrides({"splice_after": "4",
                                        "per_byte_cost": "2e-9",
                                        "sockmap_capacity": "256"})
        assert config.splice_after == 4
        assert config.per_byte_cost == 2e-9
        assert config.sockmap_capacity == 256

    def test_unknown_key_rejected_with_splice_label(self):
        with pytest.raises(ValueError, match="unknown splice tunable"):
            config_from_overrides({"pool_size": 32})

    def test_post_init_still_guards_ranges(self):
        with pytest.raises(ValueError, match="sockmap_capacity"):
            config_from_overrides({"sockmap_capacity": "0"})
