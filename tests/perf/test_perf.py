"""Tests for the repro.perf harness, report, and CLI."""

import json
import os
import re
import shutil
import subprocess

import pytest

from repro.perf.golden import canonical_json, fingerprint
from repro.perf.harness import (BENCH_NAMES, BenchResult, calibrate,
                                run_benchmarks, time_bench)
from repro.perf.report import (SCHEMA, build_report, load_report,
                               render_report, write_report)


_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


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

    def test_committed_normalized_block_matches_its_benches(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                            "BENCH_perf.json")
        report = load_report(path)
        calibration = report["host"]["calibration_ops_per_sec"]
        assert report["normalized"] == {
            name: float(f"{bench['ops_per_sec'] / calibration:.6g}")
            for name, bench in report["benches"].items()}

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

    def test_perf_quick_runs_record_the_same_ops(self, tmp_path):
        from repro.cli import main

        # The event count is exact; wall-clock scores are left to
        # bench/run.py compare, which knows its noise bounds.
        ops = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(["perf", "--quick", "--repeats", "1",
                       "--bench", "engine_throughput", "--out", str(out)])
            assert rc == 0
            ops.append(load_report(str(out))["benches"]["engine_throughput"]
                       ["ops"])
        assert ops[0] == ops[1] == 50 * 400

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


#: Full-scale event-unit benches whose exact ``ops`` tier-1 pins.
OPS_GATED = ["macro_lb_run", "fleet_sharded"]


class TestNewBenches:
    def test_sharded_registered_and_gated(self):
        assert "fleet_sharded" in BENCH_NAMES
        assert "fleet_sharded" in OPS_GATED
        assert "engine_wheel_throughput" not in BENCH_NAMES


class TestCommittedEventCounts:
    """Full-scale event-unit benches record exactly the committed ``ops``.

    An engine-event count is exact and never flakes, so it is the tier-1
    half of every perf claim ("the same events, faster"); wall-clock
    verdicts are left to bench/run.py compare.
    """

    @pytest.mark.parametrize("name", OPS_GATED)
    def test_full_scale_ops_match_the_committed_report(self, name):
        from repro.perf import benches

        committed = load_report(os.path.join(_ROOT, "BENCH_perf.json"))
        result = getattr(benches, f"bench_{name}")(repeats=1)
        assert result.ops == committed["benches"][name]["ops"]


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


def _doc_number(cell):
    """A table cell's number: ``'~1.73M ev/s'`` -> 1730000.0, ``'—'`` -> None."""
    match = re.match(r"~?([\d,]+(?:\.\d+)?)\s*([kM]?)", cell.strip("* "))
    if match is None:
        return None
    scale = {"": 1.0, "k": 1e3, "M": 1e6}[match.group(2)]
    return float(match.group(1).replace(",", "")) * scale


def _sig2(value):
    return f"{value:.2g}"


class TestPerformanceDoc:
    """docs/PERFORMANCE.md's "The numbers" table is written by hand; it
    must name every bench in the committed report and agree with it to
    2 significant figures."""

    def _rows(self):
        with open(os.path.join(_ROOT, "docs", "PERFORMANCE.md"),
                  encoding="utf-8") as handle:
            text = handle.read()
        section = text.split("\n## The numbers\n", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [cell.strip()
                     for cell in line.strip().strip("|").split("|")]
            if len(cells) == 4 and cells[0] not in ("bench", "") \
                    and not cells[0].startswith("-"):
                rows[cells[0]] = cells[1:]
        return rows

    def test_numbers_table_matches_committed_report(self):
        report = load_report(os.path.join(_ROOT, "BENCH_perf.json"))
        baseline = report["baseline_pre_pr"]
        rows = self._rows()
        assert set(rows) == set(report["benches"])
        for name, (pre_cell, now_cell, speedup_cell) in rows.items():
            now = report["benches"][name]["ops_per_sec"]
            assert _sig2(_doc_number(now_cell)) == _sig2(now), name
            if name == "macro_lb_run":
                # The baseline timed this bench in requests; the table
                # compares engine events, as the bench does now.
                pre = baseline["macro_engine_events_per_sec"]
            else:
                pre = baseline["benches"].get(name, {}).get("ops_per_sec")
            if pre is None:
                assert (pre_cell, speedup_cell) == ("—", "—"), name
                continue
            assert _sig2(_doc_number(pre_cell)) == _sig2(pre), name
            assert _sig2(_doc_number(speedup_cell)) == _sig2(now / pre), name
