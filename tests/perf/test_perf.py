"""Tests for the repro.perf harness, report, regression gate, and CLI."""

import json
import os
import shutil
import subprocess

import pytest

from repro.perf.golden import canonical_json, fingerprint
from repro.perf.harness import (BENCH_NAMES, BenchResult, calibrate,
                                run_benchmarks, time_bench)
from repro.perf.report import (GATED_BENCHES, SCHEMA, build_report,
                               check_regression, load_report, render_report,
                               write_report)


class TestGolden:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1})

    def test_fingerprint_is_sha256_hex(self):
        fp = fingerprint({"x": 1})
        assert len(fp) == 64
        int(fp, 16)  # hex-parsable

    def test_fingerprint_differs_on_value_change(self):
        assert fingerprint({"x": 1}) != fingerprint({"x": 2})


class TestHarness:
    def test_bench_result_ops_per_sec(self):
        r = BenchResult(name="x", ops=100, seconds=0.5, unit="ops")
        assert r.ops_per_sec == 200.0
        d = r.as_dict()
        assert d["ops"] == 100 and d["unit"] == "ops"

    def test_time_bench_keeps_best_of_repeats(self):
        calls = []

        def setup():
            calls.append("s")
            return len(calls)

        def run(state):
            return 10

        r = time_bench("t", setup, run, repeats=3)
        assert calls == ["s", "s", "s"]  # fresh state per repeat
        assert r.ops == 10
        assert r.seconds >= 0

    def test_calibrate_positive(self):
        assert calibrate(loops=10_000, repeats=1) > 0

    def test_run_benchmarks_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown bench"):
            run_benchmarks(only=["nope"])

    def test_run_benchmarks_subset(self):
        results = run_benchmarks(quick=True, only=["condition_allof"],
                                 repeats=1)
        assert list(results) == ["condition_allof"]
        assert results["condition_allof"].ops > 0


def _fake_results():
    return {
        "engine_throughput": BenchResult("engine_throughput", ops=1000,
                                         seconds=0.01, unit="events"),
        "macro_lb_run": BenchResult("macro_lb_run", ops=500, seconds=0.05,
                                    unit="events"),
    }


class TestReport:
    def test_build_report_schema_and_normalized(self):
        report = build_report(_fake_results(), 1_000_000.0, quick=True)
        assert report["schema"] == SCHEMA
        assert report["quick"] is True
        assert report["normalized"]["engine_throughput"] == pytest.approx(
            0.1, rel=1e-6)
        assert report["baseline_pre_pr"]["captured_at_commit"] == "4bc651e"
        # Baseline actually carries the pre-PR capture, not placeholders.
        assert report["baseline_pre_pr"]["benches"]["engine_throughput"][
            "ops_per_sec"] == pytest.approx(617511.5)

    def test_write_and_load_roundtrip(self, tmp_path):
        report = build_report(_fake_results(), 1e6)
        path = tmp_path / "bench.json"
        write_report(report, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == load_report(str(path))

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/v0"}')
        with pytest.raises(ValueError, match="not a repro.perf/v1"):
            load_report(str(path))

    def test_regression_gate_passes_within_threshold(self):
        committed = build_report(_fake_results(), 1e6)
        current = build_report(_fake_results(), 1e6)
        current["normalized"]["engine_throughput"] *= 0.85  # -15% < 20%
        assert check_regression(current, committed) == []

    def test_regression_gate_fails_beyond_threshold(self):
        committed = build_report(_fake_results(), 1e6)
        current = build_report(_fake_results(), 1e6)
        current["normalized"]["engine_throughput"] *= 0.5
        failures = check_regression(current, committed)
        assert len(failures) == 1
        assert "engine_throughput" in failures[0]

    def test_gate_sees_a_drop_on_a_tiny_score(self):
        # sweep_table3 scores ~6e-7: rounding to 6 decimals would commit
        # 1e-06 and hide a 30% drop; 6 significant digits keep it visible.
        def report(seconds):
            cells = BenchResult("sweep_table3", ops=24, seconds=seconds,
                                unit="cells")
            return build_report({"sweep_table3": cells}, 28362978.9)

        committed = report(1.348682)
        assert committed["normalized"]["sweep_table3"] == pytest.approx(
            6.27e-7, rel=1e-3)
        current = report(1.348682 / 0.7)
        failures = check_regression(current, committed)
        assert len(failures) == 1 and "sweep_table3" in failures[0]

    def test_committed_normalized_block_matches_its_benches(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                            "BENCH_perf.json")
        report = load_report(path)
        calibration = report["host"]["calibration_ops_per_sec"]
        assert report["normalized"] == {
            name: float(f"{bench['ops_per_sec'] / calibration:.6g}")
            for name, bench in report["benches"].items()}

    def test_gate_skips_missing_benches(self):
        committed = build_report(_fake_results(), 1e6)
        assert check_regression({"normalized": {}}, committed) == []

    def test_gated_benches_are_the_throughput_trajectory(self):
        assert GATED_BENCHES == ("engine_throughput", "macro_lb_run",
                                 "sweep_table3", "fleet_sharded")
        assert set(GATED_BENCHES) <= set(BENCH_NAMES)

    def test_render_report_mentions_every_bench(self):
        report = build_report(_fake_results(), 1e6)
        text = render_report(report)
        assert "engine_throughput" in text and "macro_lb_run" in text


class TestCli:
    def test_perf_quick_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_perf.json"
        rc = main(["perf", "--quick", "--repeats", "1",
                   "--bench", "condition_allof", "--out", str(out)])
        assert rc == 0
        report = load_report(str(out))
        assert report["quick"] is True
        assert list(report["benches"]) == ["condition_allof"]
        assert "condition_allof" in capsys.readouterr().out

    def test_perf_check_gate_failure_exits_nonzero(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "now.json"
        committed = tmp_path / "committed.json"
        # A committed report with an impossibly high normalized score must
        # trip the gate.
        report = build_report(_fake_results(), 1.0)  # normalized = huge
        write_report(report, str(committed))
        rc = main(["perf", "--quick", "--repeats", "1",
                   "--bench", "engine_throughput", "--out", str(out),
                   "--check", str(committed)])
        assert rc == 1

    def test_perf_check_gate_passes_against_itself(self, tmp_path):
        from repro.cli import main

        # Best of 3 on each side: one pass per side let ordinary host noise
        # cross the 20% gate now and then.
        out = tmp_path / "a.json"
        rc = main(["perf", "--quick", "--repeats", "3",
                   "--bench", "engine_throughput", "--out", str(out)])
        assert rc == 0
        rc = main(["perf", "--quick", "--repeats", "3",
                   "--bench", "engine_throughput",
                   "--out", str(tmp_path / "b.json"), "--check", str(out)])
        assert rc == 0

    def test_perf_rejects_unknown_bench(self, tmp_path):
        from repro.cli import main

        rc = main(["perf", "--quick", "--bench", "bogus",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 1


class TestHostMetadata:
    def test_report_records_cpu_topology(self):
        report = build_report(_fake_results(), 1e6)
        host = report["host"]
        assert host["cpu_count"] == os.cpu_count()
        try:
            expected = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            expected = None
        assert host["cpu_affinity"] == expected
        assert host["python"]

    def test_affinity_never_exceeds_cpu_count(self):
        host = build_report(_fake_results(), 1e6)["host"]
        if host["cpu_affinity"] is not None:
            assert 1 <= host["cpu_affinity"] <= host["cpu_count"]


class TestNewBenches:
    def test_sharded_registered_and_gated(self):
        assert "fleet_sharded" in BENCH_NAMES
        assert "fleet_sharded" in GATED_BENCHES
        assert "engine_wheel_throughput" not in BENCH_NAMES


class TestMakefileWiring:
    def test_make_perf_forwards_bench_selection(self):
        # `make perf BENCH="a b"` must expand to repeated --bench flags.
        make = shutil.which("make")
        if make is None:
            pytest.skip("make not available")
        root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        out = subprocess.run(
            [make, "-n", "perf", "BENCH=engine_throughput fleet_sharded"],
            capture_output=True, text=True, cwd=root)
        assert out.returncode == 0, out.stderr
        flat = " ".join(out.stdout.split())
        assert "--bench engine_throughput" in flat
        assert "--bench fleet_sharded" in flat
