"""Scenario execution and the campaign driver."""

import json

import pytest

from repro.faults import FaultInjector, FaultKind
from repro.fuzz import Scenario, generate_scenarios, run_fuzz, run_scenario
from repro.sweep.cache import CellCache


def small_scenarios(budget=3, seed=7, **kwargs):
    kwargs.setdefault("families", ["diurnal", "fanout_chain"])
    return generate_scenarios(budget, seed=seed, **kwargs)


class TestRunScenario:
    def test_clean_run_reports_ok(self):
        doc = run_scenario(small_scenarios(1, fleet_fraction=0.0)[0])
        assert doc["ok"]
        assert doc["violation"] is None
        assert doc["replayed"] + doc["skipped"] == doc["events"]
        assert doc["passes"]  # monitors actually evaluated something

    def test_live_oracles_compare_on_hermes(self):
        scenario = generate_scenarios(
            1, seed=7, modes=["hermes"], families=["diurnal"],
            fleet_fraction=0.0)[0]
        doc = run_scenario(scenario)
        assert doc["ok"]
        assert doc["oracle_comparisons"] > 0

    def test_run_twice_is_byte_identical(self):
        scenario = small_scenarios(1)[0]
        a = json.dumps(run_scenario(scenario), sort_keys=True)
        b = json.dumps(run_scenario(scenario), sort_keys=True)
        assert a == b

    def test_fleet_scenario_arms_pcc(self):
        scenario = next(s for s in generate_scenarios(
            20, seed=7, families=["diurnal"], fleet_fraction=1.0))
        doc = run_scenario(scenario)
        assert doc["ok"]
        assert "pcc" in doc["passes"]

    def test_faults_fire(self):
        for scenario in small_scenarios(20, fleet_fraction=0.0):
            if scenario.plan["faults"]:
                doc = run_scenario(scenario)
                assert doc["faults_fired"] >= 1
                break
        else:
            pytest.fail("no scenario drew a fault plan")

    def test_drill_arms_on_hermes(self):
        scenario = generate_scenarios(
            1, seed=11, modes=["hermes"], families=["diurnal"],
            fleet_fraction=0.0, drill="corrupt_bitmap")[0]
        doc = run_scenario(scenario)
        assert doc["drill_armed"]
        assert not doc["ok"]
        assert doc["violation"]["name"] == "bitmap_wst"

    def test_drill_noops_without_hermes_state(self):
        scenario = generate_scenarios(
            1, seed=11, modes=["exclusive"], families=["diurnal"],
            fleet_fraction=0.0, drill="corrupt_bitmap")[0]
        doc = run_scenario(scenario)
        assert not doc["drill_armed"]
        assert doc["ok"]

    def test_unknown_drill_raises(self):
        scenario = small_scenarios(1)[0]
        data = scenario.to_dict()
        data["drill"] = "bogus"
        with pytest.raises(ValueError, match="unknown drill"):
            run_scenario(Scenario.from_dict(data))


class TestRunFuzz:
    def test_campaign_is_byte_deterministic(self):
        a = run_fuzz(3, seed=7, shrink=False,
                     families=["diurnal", "fanout_chain"])
        b = run_fuzz(3, seed=7, shrink=False,
                     families=["diurnal", "fanout_chain"])
        assert json.dumps(a.document(), sort_keys=True) == \
            json.dumps(b.document(), sort_keys=True)
        assert a.ok

    def test_parallel_matches_serial(self):
        serial = run_fuzz(3, seed=7, jobs=1, shrink=False,
                          families=["diurnal"])
        parallel = run_fuzz(3, seed=7, jobs=2, shrink=False,
                            families=["diurnal"])
        assert json.dumps(serial.document(), sort_keys=True) == \
            json.dumps(parallel.document(), sort_keys=True)

    def test_cache_memoizes(self, tmp_path):
        cold = run_fuzz(2, seed=7, shrink=False, families=["diurnal"],
                        cache=CellCache(str(tmp_path)))
        warm = run_fuzz(2, seed=7, shrink=False, families=["diurnal"],
                        cache=CellCache(str(tmp_path)))
        assert cold.cache_stats["misses"] == 2
        assert warm.cache_stats["hits"] == 2
        assert warm.cache_stats["misses"] == 0
        assert [d for d in cold.results] == [d for d in warm.results]

    def test_campaign_fires_every_fault_kind(self, monkeypatch):
        # ``repro fuzz --budget 9 --seed 29 --mode hermes --family
        # diurnal``: the seed and budget are chosen so that every kind the
        # generator draws fires at least once (~1 s).
        fired = set()
        real_fire = FaultInjector._fire

        def spy(injector, spec, index, occurrence):
            fired.add(spec.kind)
            real_fire(injector, spec, index, occurrence)

        monkeypatch.setattr(FaultInjector, "_fire", spy)
        report = run_fuzz(9, seed=29, shrink=False, modes=["hermes"],
                          families=["diurnal"])
        assert report.ok
        assert fired == set(FaultKind)

    def test_report_document_shape(self):
        report = run_fuzz(2, seed=7, shrink=False, families=["diurnal"])
        doc = report.document()
        assert doc["schema"] == "repro/fuzz-report/v1"
        assert doc["budget"] == 2
        assert doc["seed"] == 7
        assert len(doc["results"]) == 2
        assert doc["ok"] and doc["n_violations"] == 0
