"""Scenario generation: determinism, validity, serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.faults import FaultPlan
from repro.faults.plan import FLEET_KINDS, FaultKind
from repro.fuzz import Scenario, generate_scenarios
from repro.fuzz.generator import (
    _DEVICE_KINDS, _FLEET_KINDS, _HERMES_KINDS, DEFAULT_MODES, FLEET_MODES)
from repro.workloads import FAMILIES


class TestDeterminism:
    def test_same_seed_same_scenarios(self):
        a = generate_scenarios(10, seed=42)
        b = generate_scenarios(10, seed=42)
        assert [s.to_dict() for s in a] == [s.to_dict() for s in b]

    def test_different_seed_different_scenarios(self):
        a = generate_scenarios(10, seed=1)
        b = generate_scenarios(10, seed=2)
        assert [s.to_dict() for s in a] != [s.to_dict() for s in b]

    def test_budget_prefix_stability(self):
        # Scenario i depends only on (seed, i): extending the budget
        # never reshuffles earlier scenarios.
        short = generate_scenarios(4, seed=13)
        long = generate_scenarios(12, seed=13)
        assert [s.to_dict() for s in short] == \
            [s.to_dict() for s in long[:4]]


class TestValidity:
    def test_every_fault_kind_is_drawable(self):
        # A kind the generator cannot draw is a kind no campaign fires.
        drawable = _DEVICE_KINDS + _HERMES_KINDS + _FLEET_KINDS
        assert set(drawable) == set(FaultKind)

    def test_plans_parse_and_are_canonical(self):
        for scenario in generate_scenarios(30, seed=99):
            plan = FaultPlan.from_dict(scenario.plan)
            # Round-tripping through the stricter validation proves
            # every drawn field is kind-applicable.
            assert plan.to_dict() == scenario.plan

    def test_fleet_scenarios_draw_fleet_kinds_only(self):
        for scenario in generate_scenarios(40, seed=5, fleet_fraction=1.0):
            assert scenario.is_fleet
            assert scenario.mode in FLEET_MODES
            for spec in FaultPlan.from_dict(scenario.plan):
                assert spec.kind in FLEET_KINDS

    def test_device_scenarios_never_draw_fleet_kinds(self):
        for scenario in generate_scenarios(40, seed=5, fleet_fraction=0.0):
            assert not scenario.is_fleet
            assert scenario.mode in DEFAULT_MODES
            for spec in FaultPlan.from_dict(scenario.plan):
                assert spec.kind not in FLEET_KINDS

    def test_hermes_only_kinds_respect_mode(self):
        hermes_only = {FaultKind.WST_FREEZE, FaultKind.WST_TORN_BURST,
                       FaultKind.BITMAP_SYNC_LOSS}
        for scenario in generate_scenarios(60, seed=21, fleet_fraction=0.0):
            if scenario.mode == "hermes":
                continue
            for spec in FaultPlan.from_dict(scenario.plan):
                assert spec.kind not in hermes_only

    def test_workload_params_are_in_family(self):
        for scenario in generate_scenarios(20, seed=3):
            family = FAMILIES[scenario.family]
            for key in scenario.workload:
                assert key in family.defaults

    def test_filters(self):
        scenarios = generate_scenarios(
            10, seed=7, modes=["exclusive"], families=["diurnal"],
            fleet_fraction=0.0)
        assert all(s.mode == "exclusive" and s.family == "diurnal"
                   for s in scenarios)

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            generate_scenarios(1, seed=7, families=["nope"])

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            generate_scenarios(-1, seed=7)


class TestSerialization:
    def test_round_trip(self):
        for scenario in generate_scenarios(10, seed=17):
            clone = Scenario.from_dict(scenario.to_dict())
            assert clone.to_dict() == scenario.to_dict()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=st.integers(0, 2 ** 31),
           drill=st.sampled_from([None, "corrupt_bitmap"]),
           fleet_fraction=st.sampled_from([0.0, 1.0]))
    def test_round_trip_property(self, family, seed, drill, fleet_fraction):
        # The fan-out ships every scenario as its dict, pooled or not.
        for scenario in generate_scenarios(
                3, seed=seed, families=[family], drill=drill,
                fleet_fraction=fleet_fraction):
            doc = scenario.to_dict()
            assert Scenario.from_dict(doc).to_dict() == doc

    def test_drill_propagates(self):
        scenarios = generate_scenarios(3, seed=7, drill="corrupt_bitmap")
        assert all(s.drill == "corrupt_bitmap" for s in scenarios)
