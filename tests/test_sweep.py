"""Tests for repro.sweep: orchestrator determinism, cache, fingerprint.

The load-bearing guarantee under test: the merged document of a
``--jobs N`` sweep is byte-identical to ``--jobs 1``, whether cells were
executed fresh or served from the content-addressed cache.
"""

import json

import pytest

from repro.experiments.registry import (CellSpec, ExperimentSpec, get,
                                        register)
from repro.sweep import (CACHE_SCHEMA, CellCache, SWEEP_SCHEMA,
                         cell_cache_key, code_fingerprint,
                         reset_fingerprint_cache, run_sweep)

# ---------------------------------------------------------------------------
# A synthetic experiment: instant cells, an execution counter, and a
# deterministic merge.  jobs=1 only (worker processes re-resolve specs by
# module name, and this one lives in the test file).
# ---------------------------------------------------------------------------

_CALLS = {"n": 0}


def _tiny_cells(seed, overrides):
    n = overrides.get("n", 3)
    scale = overrides.get("scale", 1)
    return tuple(
        CellSpec("_sweep_test", f"cell{i}", {"i": i, "scale": scale},
                 seed + i)
        for i in range(n))


def _tiny_run(cell):
    _CALLS["n"] += 1
    p = cell.params
    return {"value": p["i"] * p["scale"] + cell.seed,
            "rendered": f"cell{p['i']}={p['i'] * p['scale'] + cell.seed}"}


def _tiny_merge(cells, docs):
    return {"values": [doc["value"] for doc in docs],
            "rendered": "\n".join(doc["rendered"] for doc in docs)}


register(ExperimentSpec(
    name="_sweep_test", title="synthetic sweep fixture",
    cells=_tiny_cells, run_cell=_tiny_run, merge=_tiny_merge,
    render=lambda merged: merged["rendered"], default_seed=100,
    tunables={"n": "cell count", "scale": "value multiplier"}))


@pytest.fixture(autouse=True)
def _reset_calls():
    _CALLS["n"] = 0
    yield


# ---------------------------------------------------------------------------
# CellCache
# ---------------------------------------------------------------------------

class TestCellCache:
    CELL = CellSpec("x", "k", {"a": 1}, 7)

    def test_key_is_deterministic(self):
        assert cell_cache_key(self.CELL, "code") \
            == cell_cache_key(self.CELL, "code")

    def test_key_depends_on_every_identity_leg(self):
        base = cell_cache_key(self.CELL, "code")
        assert cell_cache_key(CellSpec("x", "k", {"a": 1}, 8),
                              "code") != base
        assert cell_cache_key(CellSpec("x", "k", {"a": 2}, 7),
                              "code") != base
        assert cell_cache_key(CellSpec("x", "k2", {"a": 1}, 7),
                              "code") != base
        assert cell_cache_key(self.CELL, "other-code") != base

    def test_put_get_roundtrip(self, tmp_path):
        cache = CellCache(tmp_path / "c")
        key = cache.key_for(self.CELL, "code")
        assert cache.get(key) is None
        cache.put(key, self.CELL, {"v": 1})
        assert cache.get(key) == {"v": 1}
        assert cache.stats == {"hits": 1, "misses": 1, "stores": 1,
                               "recovered": 0}
        assert len(cache) == 1

    def test_corrupt_entry_is_discarded_and_missed(self, tmp_path):
        cache = CellCache(tmp_path / "c")
        key = cache.key_for(self.CELL, "code")
        cache.put(key, self.CELL, {"v": 1})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.recovered == 1
        assert not cache.path_for(key).exists()

    def test_wrong_schema_entry_is_discarded(self, tmp_path):
        cache = CellCache(tmp_path / "c")
        key = cache.key_for(self.CELL, "code")
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_text(
            json.dumps({"schema": "something/else", "doc": {}}),
            encoding="utf-8")
        assert cache.get(key) is None
        assert cache.recovered == 1

    def test_clear_removes_everything(self, tmp_path):
        cache = CellCache(tmp_path / "c")
        for seed in range(4):
            cell = CellSpec("x", "k", {}, seed)
            cache.put(cache.key_for(cell, "code"), cell, {"seed": seed})
        assert len(cache) == 4
        assert cache.clear() == 4
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# code fingerprint
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_is_sha256_hex(self):
        digest = code_fingerprint()
        assert len(digest) == 64
        int(digest, 16)

    def test_stable_across_reset_while_tree_unchanged(self):
        first = code_fingerprint()
        reset_fingerprint_cache()
        assert code_fingerprint() == first


# ---------------------------------------------------------------------------
# run_sweep on the synthetic experiment (serial path + cache semantics)
# ---------------------------------------------------------------------------

class TestRunSweep:
    def test_merges_in_enumeration_order(self):
        result = run_sweep("_sweep_test")
        assert result.seed == 100
        assert [run.cell.key for run in result.runs] \
            == ["cell0", "cell1", "cell2"]
        assert result.merged["values"] == [100, 102, 104]
        assert result.render().splitlines()[0] == "cell0=100"
        assert result.executed == 3 and result.cached == 0

    def test_document_is_canonical(self):
        doc = run_sweep("_sweep_test").document()
        assert doc["schema"] == SWEEP_SCHEMA
        assert doc["experiment"] == "_sweep_test"
        assert [c["key"] for c in doc["cells"]] \
            == ["cell0", "cell1", "cell2"]

    def test_overrides_reach_the_grid(self):
        result = run_sweep("_sweep_test", seed=5,
                           overrides={"n": 2, "scale": 10})
        assert result.merged["values"] == [5, 16]

    def test_warm_cache_serves_all_cells_byte_identically(self, tmp_path):
        cold = run_sweep("_sweep_test", cache=tmp_path / "c")
        assert cold.executed == 3
        warm = run_sweep("_sweep_test", cache=tmp_path / "c")
        assert warm.executed == 0 and warm.cached == 3
        assert _CALLS["n"] == 3  # second run computed nothing
        assert warm.to_json() == cold.to_json()
        assert warm.cache_stats["hits"] == 3

    def test_seed_change_misses_the_cache(self, tmp_path):
        run_sweep("_sweep_test", cache=tmp_path / "c")
        rerun = run_sweep("_sweep_test", seed=101, cache=tmp_path / "c")
        assert rerun.executed == 3

    def test_override_change_misses_the_cache(self, tmp_path):
        run_sweep("_sweep_test", cache=tmp_path / "c")
        rerun = run_sweep("_sweep_test", overrides={"scale": 2},
                          cache=tmp_path / "c")
        assert rerun.executed == 3

    def test_code_fingerprint_change_invalidates(self, tmp_path,
                                                 monkeypatch):
        run_sweep("_sweep_test", cache=tmp_path / "c")
        monkeypatch.setattr("repro.sweep.orchestrator.code_fingerprint",
                            lambda: "0" * 64)
        rerun = run_sweep("_sweep_test", cache=tmp_path / "c")
        assert rerun.executed == 3

    def test_force_reexecutes_but_refreshes_cache(self, tmp_path):
        run_sweep("_sweep_test", cache=tmp_path / "c")
        forced = run_sweep("_sweep_test", cache=tmp_path / "c", force=True)
        assert forced.executed == 3
        warm = run_sweep("_sweep_test", cache=tmp_path / "c")
        assert warm.cached == 3

    def test_corrupt_entry_only_reruns_that_cell(self, tmp_path):
        cache = CellCache(tmp_path / "c")
        cold = run_sweep("_sweep_test", cache=cache)
        victim = cache.key_for(cold.runs[1].cell, code_fingerprint())
        cache.path_for(victim).write_text("garbage", encoding="utf-8")
        warm = run_sweep("_sweep_test", cache=CellCache(tmp_path / "c"))
        assert warm.executed == 1 and warm.cached == 2
        assert warm.to_json() == cold.to_json()

    def test_progress_callback_sees_lifecycle(self):
        events = []
        run_sweep("_sweep_test",
                  progress=lambda name, **info: events.append(name))
        assert events[0] == "sweep.start"
        assert events[-1] == "sweep.done"
        assert events.count("sweep.cell.done") == 3

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep("_sweep_test", jobs=0)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_sweep("no_such_experiment")

    def test_unread_override_is_refused_before_any_cell_runs(self):
        with pytest.raises(ValueError, match=r"sacle; accepted: n, scale"):
            run_sweep("_sweep_test", overrides={"n": 2, "sacle": 10})
        assert _CALLS["n"] == 0

    def test_registry_run_refuses_unread_override_too(self):
        with pytest.raises(ValueError, match="sacle"):
            get("_sweep_test").run(overrides={"sacle": 10})


# ---------------------------------------------------------------------------
# The cache half of the contract on a real experiment: a warm rerun is
# byte-identical to the cold one.  (Serial vs parallel, for every
# experiment, is tests/test_contract.py.)
# ---------------------------------------------------------------------------

#: Small enough to run in seconds: one case, one load, all three modes.
_TINY_TABLE3 = {"cases": ["case2"], "loads": ["light"],
                "duration_scale": 0.1, "n_workers": 2,
                "ports": list(range(20001, 20006)), "settle": 0.5}


class TestTable3Golden:
    def test_cached_rerun_is_byte_identical(self, tmp_path):
        cold = run_sweep("table3", seed=11, jobs=1,
                         cache=tmp_path / "c", overrides=_TINY_TABLE3)
        warm = run_sweep("table3", seed=11, jobs=2,
                         cache=tmp_path / "c", overrides=_TINY_TABLE3)
        assert cold.executed == 3
        assert warm.executed == 0 and warm.cached == 3
        assert warm.to_json() == cold.to_json()
        assert warm.render() == cold.render()
