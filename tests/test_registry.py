"""Tests for the unified experiment registry."""

import pytest

from repro.experiments import registry
from repro.experiments.registry import (EXPERIMENT_MODULES, CellSpec, Claim,
                                        check_claims, no_claims,
                                        normalize_doc)


class TestRegistryCoverage:
    """Every paper experiment is registered, enumerable, and described."""

    def test_names_match_module_list(self):
        assert registry.names() == EXPERIMENT_MODULES

    def test_load_all_registers_every_module(self):
        specs = registry.load_all()
        assert set(EXPERIMENT_MODULES) <= set(specs)

    @pytest.mark.parametrize("name", EXPERIMENT_MODULES)
    def test_every_experiment_describes(self, name):
        info = registry.describe(name)
        assert info["name"] == name
        assert info["title"]
        assert info["n_cells"] >= 1
        assert len(info["cell_keys"]) == info["n_cells"]
        assert len(set(info["cell_keys"])) == info["n_cells"], \
            f"{name} has duplicate cell keys"

    @pytest.mark.parametrize("name", EXPERIMENT_MODULES)
    def test_cells_carry_the_requested_seed(self, name):
        spec = registry.get(name)
        for cell in spec.cells(1234, {}):
            assert cell.experiment == name
            assert cell.seed >= 1234  # base seed, possibly plus an offset
            normalize_doc(cell.params)  # params must be JSON-safe

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            registry.get("nonexistent_experiment")


class TestCellSpec:
    def test_identity_is_canonical(self):
        cell = CellSpec("e", "k", {"b": (1, 2), "a": 1}, 9)
        identity = cell.identity()
        assert identity == {"experiment": "e", "key": "k",
                            "params": {"a": 1, "b": [1, 2]}, "seed": 9}

    def test_normalize_doc_collapses_tuples_and_keys(self):
        assert normalize_doc({"t": (1, 2)}) == {"t": [1, 2]}
        assert normalize_doc({3: "x", 1: "y"}) == {"3": "x", "1": "y"}


class TestClaims:
    RULES = (
        ("a_below_b", ["a", "b"],
         lambda a, b: (a < b, f"{a} vs {b}")),
        ("c_positive", ["c"], lambda c: (c > 0, f"{c}")),
    )

    def test_rules_are_judged_on_the_table(self):
        claims = check_claims({"a": 1, "b": 2, "c": -1}, self.RULES)
        assert claims == (Claim("a_below_b", True, "1 vs 2"),
                          Claim("c_positive", False, "-1"))

    def test_a_rule_with_a_missing_cell_is_left_out(self):
        assert check_claims({"a": 1, "c": 3}, self.RULES) \
            == (Claim("c_positive", True, "3"),)

    def test_an_experiment_skips_claims_on_cells_it_did_not_run(self):
        claims = registry.get("sec7").claims({"cells": {"backend_rr": {
            "imbalance_synchronized": 3.0, "imbalance_randomized": 1.2}}})
        assert [c.name for c in claims] == [
            "synchronized_rr_overloads_head_servers",
            "randomized_offsets_even_out_rr"]
        assert all(c.holds for c in claims)

    def test_line_format(self):
        assert Claim("x", True, "1 < 2").line() == "claim x: holds (1 < 2)"
        assert Claim("x", False, "3 < 2").line() == "claim x: FAILS (3 < 2)"

    def test_claims_default_to_none(self):
        spec = registry.get("resilience")
        assert spec.claims is no_claims
        assert spec.claims({"cells": {}}) == ()

