"""Sweep determinism: the registry's serial path matches the sweep.

(Serial vs parallel sweeps are tests/test_contract.py, for every
experiment.)
"""

from repro.experiments.registry import get
from repro.sweep import run_sweep

_OVERRIDES = {"cells": ["policy/hcl", "policy/latency"], "duration": 1.0,
              "base_rate": 400.0, "spike_times": [0.5]}


class TestSweepIdentity:
    def test_registry_run_matches_sweep(self):
        spec = get("prequal_ablation")
        direct = spec.run(seed=11, overrides=dict(_OVERRIDES))
        swept = run_sweep("prequal_ablation", seed=11, jobs=2,
                          overrides=dict(_OVERRIDES))
        assert direct == swept.merged


class TestGrid:
    def test_cell_enumeration_honours_subset_and_tunables(self):
        spec = get("prequal_ablation")
        cells = spec.cells(7, {"cells": ["policy/hcl", "q/0.5"],
                               "reuse_budget": 2})
        assert [cell.key for cell in cells] == ["policy/hcl", "q/0.5"]
        assert all(cell.params["config"]["reuse_budget"] == 2
                   for cell in cells)
        # The axis variant still wins over the global override.
        assert cells[1].params["config"]["q_hot"] == 0.5

    def test_full_grid_shape(self):
        spec = get("prequal_ablation")
        cells = spec.cells(7, {})
        keys = [cell.key for cell in cells]
        assert keys[:3] == ["policy/hcl", "policy/latency", "policy/rif"]
        assert len(keys) == 11
