"""fleet_scale through the sweep runner: a warm cache reruns byte for byte.

(Serial vs parallel is tests/test_contract.py, for every experiment.)
"""

from repro.experiments.registry import get
from repro.sweep import run_sweep

#: Two cells (2x stateful, 2x stateless) at a shortened duration — small
#: enough for tier-1.
_TINY_FLEET = {"instances": [2], "duration": 1.0}


class TestFleetScaleSweep:
    def test_cached_rerun_is_byte_identical(self, tmp_path):
        cold = run_sweep("fleet_scale", seed=31, jobs=1,
                         cache=tmp_path / "c", overrides=_TINY_FLEET)
        warm = run_sweep("fleet_scale", seed=31, jobs=2,
                         cache=tmp_path / "c", overrides=_TINY_FLEET)
        assert cold.executed == 2
        assert warm.executed == 0 and warm.cached == 2
        assert warm.to_json() == cold.to_json()
        assert warm.render() == cold.render()


class TestGrid:
    def test_default_grid_covers_three_sizes(self):
        spec = get("fleet_scale")
        cells = spec.cells(spec.default_seed, {})
        keys = [cell.key for cell in cells]
        assert len(keys) == 6
        assert {key.split("x/")[0] for key in keys} == {"2", "4", "8"}
        assert {key.split("/")[1] for key in keys} == \
            {"stateful", "stateless"}

    def test_cell_subset_override(self):
        spec = get("fleet_scale")
        cells = spec.cells(31, {"cells": ["4x/stateless"]})
        assert [cell.key for cell in cells] == ["4x/stateless"]
