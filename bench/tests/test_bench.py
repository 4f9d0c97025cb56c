"""Tests of the benchmark itself, run in-process on tiny workloads.

    PYTHONPATH=src python -m pytest bench/tests
"""

import dataclasses
import json
import time

import pytest

import child
import layers
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: The real workloads shrunk to a fraction of a host second each.
TINY = {
    "hermes_case1": dataclasses.replace(
        workloads.WORKLOADS["hermes_case1"], duration=0.05),
    "exclusive_case1": dataclasses.replace(
        workloads.WORKLOADS["exclusive_case1"], duration=0.05),
    "splice_case3": dataclasses.replace(
        workloads.WORKLOADS["splice_case3"], duration=0.3),
    "fleet16": dataclasses.replace(
        workloads.WORKLOADS["fleet16"], duration=0.4),
}


def in_process(name, seed, kind):
    return child.run_pass(name, seed, kind, time.monotonic())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)


@pytest.fixture(scope="module")
def results():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "WORKLOADS", TINY)
        return {name: run.run_workload(name, 7, repeats=2, seconds=None,
                                       trace=True, runner=in_process)
                for name in TINY}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(TINY)
    assert list(workloads.WORKLOADS) == list(TINY)


def test_metric_names_and_units_match_benchmark_json(results):
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert (len(end_to_end), len(per_layer)) == (8, 44)
    for name, result in results.items():
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == end_to_end, name
        assert {k: v["unit"] for k, v in result["layers"].items()} \
            == per_layer, name
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            line = run.contract_line({name: result}, trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert {k: v["unit"] for k, v in line["metrics"].items()} \
                == expected
            assert all(isinstance(v["value"], (int, float))
                       for v in line["metrics"].values())
        assert result["attempted"] >= 1 and result["failed"] == 0


def test_trace_confirms_workload_design(results):
    def layer(name, metric):
        return results[name]["layers"][metric]["value"]

    assert layer("hermes_case1", "core.self_s") > 0
    assert layer("hermes_case1", "core.dispatch.calls") > 0
    for name in ("exclusive_case1", "splice_case3"):
        assert layer(name, "core.self_s") == 0
        assert layer(name, "core.schedule.calls") == 0
    for name in ("hermes_case1", "exclusive_case1", "fleet16"):
        assert layer(name, "splice.self_s") == 0
    assert layer("splice_case3", "splice.forward.calls") > 0
    assert layer("fleet16", "fleet.foreign_ratio") > 0.9
    assert layer("fleet16", "fleet.shard.calls") == 16
    for name in TINY:
        assert layer(name, "trace.overhead") > 0


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", list(TINY))
def test_traced_digest_equals_untraced(tiny, name, seed):
    digests = {kind: in_process(name, seed, kind)["digest"]
               for kind in child.KINDS}
    assert len(set(digests.values())) == 1, digests


def test_missing_entry_point_reads_null_with_warning(tiny, monkeypatch):
    probes = tuple(
        dataclasses.replace(p, attr="CascadingScheduler.renamed")
        if p.name == "core.schedule" else p for p in layers.PROBES)
    monkeypatch.setattr(layers, "PROBES", probes)
    with pytest.warns(UserWarning, match="core.schedule"):
        doc = in_process("hermes_case1", 7, "traced")
    assert doc["missing_probes"] == ["core.schedule"]
    for metric in ("calls", "us", "pass_ratio"):
        assert doc["layers"][f"core.schedule.{metric}"] is None
    assert doc["layers"]["core.dispatch.calls"] > 0


def test_planted_digest_mismatch_fails_gate(tiny, monkeypatch, capsys,
                                            tmp_path):
    def planted(name, seed, kind):
        doc = in_process(name, seed, kind)
        if kind == "traced":
            doc["digest"] = "0" * 64
        return doc

    with pytest.raises(run.GateError, match="hermes_case1"):
        run.run_workload("hermes_case1", 7, repeats=1, seconds=None,
                         trace=True, runner=planted)
    monkeypatch.setattr(run, "run_child", planted)
    code = run.main(["--workload", "hermes_case1", "--repeats", "1",
                     "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "hermes_case1" in captured.err
    assert '"correct"' not in captured.out


def _results(run_s_scale=1.0, digest="d"):
    base = [1.0, 1.01, 0.99, 1.0, 1.005]
    metrics = {}
    for spec in BENCHMARK["end_to_end"]:
        scale = run_s_scale if spec["name"] == "run_s" else 1.0
        metrics[spec["name"]] = {
            "unit": spec["unit"], **run.quartiles([v * scale for v in base])}
    return {"workloads": {"hermes_case1": {"digest": digest,
                                           "metrics": metrics}}}


def test_compare_flags_planted_slowdown_and_passes_identical():
    specs = run.load_benchmark()
    planted = 1 + specs["run_s"]["bound"] + 0.05
    slow = run.compare(_results(), _results(run_s_scale=planted), specs)
    verdicts = {row["metric"]: row["verdict"] for row in slow["rows"]}
    assert verdicts.pop("run_s") == "worse"
    assert set(verdicts.values()) == {"within bound"}

    same = run.compare(_results(), _results(), specs)
    assert {row["verdict"] for row in same["rows"]} == {"within bound"}
    assert same["digest_same"] == {"hermes_case1": True}
    changed = run.compare(_results(), _results(digest="e"), specs)
    assert changed["digest_same"] == {"hermes_case1": False}


def test_compare_command_exits_non_zero_on_worse(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_results()))
    b.write_text(json.dumps(_results(run_s_scale=1.5, digest="e")))
    assert run.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "CHANGED" in out
    assert run.main(["compare", str(a), str(a)]) == 0


def test_verdict_is_unresolved_when_spread_exceeds_bound():
    a = run.quartiles([1.0, 1.5, 0.7, 1.2, 0.9])
    b = run.quartiles([1.1, 1.4, 0.8, 1.3, 1.0])
    assert run.verdict(a, b, "lower", 0.05) == "unresolved"
    faster = run.quartiles([0.5, 0.55, 0.45, 0.5, 0.52])
    assert run.verdict(a, faster, "lower", 0.05) == "better"
