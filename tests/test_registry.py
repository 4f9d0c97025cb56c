"""Tests for the unified experiment registry and the typed entry points."""

import pytest

from repro.experiments import registry
from repro.experiments.registry import (EXPERIMENT_MODULES, CellSpec,
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


class TestTypedEntryPoints:
    def test_registry_render_matches_typed_run(self):
        from repro.experiments.scaling import _point_line, run_scaling

        points = run_scaling(worker_counts=(2,), duration=0.4)
        merged = registry.get("scaling").run(
            overrides={"worker_counts": [2], "duration": 0.4})
        # Registry cells render exactly the typed function's points.
        assert merged["rendered"].splitlines() \
            == [_point_line(p) for p in points]
