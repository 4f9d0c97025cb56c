"""Tests for the command-line interface."""

import importlib
import json
import pathlib

import pytest

import repro.experiments
from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mode == "hermes"
        assert args.case == "case1"
        assert args.workers == 8

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--mode", "reuseport", "--case", "case4",
             "--load", "heavy", "--workers", "4", "--ports", "3"])
        assert args.mode == "reuseport"
        assert args.case == "case4"
        assert args.ports == 3

    def test_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mode", "bogus"])

    def test_invalid_case_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--case", "case9"])

    def test_experiment_names_validated(self):
        args = build_parser().parse_args(["experiment", "table3"])
        assert args.name == "table3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.case == "case2"
        assert args.load == "medium"
        assert args.out == "trace.json"
        assert args.format == "chrome"
        assert args.flight is None

    def test_run_trace_flag(self):
        args = build_parser().parse_args(["run", "--trace", "out.json"])
        assert args.trace == "out.json"

    def test_chaos_requires_plan(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])
        args = build_parser().parse_args(["chaos", "--plan", "p.json"])
        assert args.plan == "p.json"
        assert args.mode == "hermes"

    def test_resilience_defaults(self):
        args = build_parser().parse_args(["resilience"])
        assert args.seed == 7
        assert args.scenarios is None
        assert args.out is None

    def test_resilience_repeatable_scenarios(self):
        args = build_parser().parse_args(
            ["resilience", "--scenario", "worker_hang",
             "--scenario", "nic_loss"])
        assert args.scenarios == ["worker_hang", "nic_loss"]

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "table3"])
        assert args.seed is None
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache and not args.force
        assert args.overrides is None
        assert not args.require_cached

    def test_sweep_repeatable_set(self):
        args = build_parser().parse_args(
            ["sweep", "table3", "--set", "n_workers=2",
             "--set", 'cases=["case1"]'])
        assert args.overrides == ["n_workers=2", 'cases=["case1"]']

    def test_sweep_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "nope"])

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "table3", "--jobs", "0"])


class TestExperimentWiring:
    """Every experiment is importable and wired; none is forgotten."""

    def test_every_experiment_importable(self):
        for name in EXPERIMENTS:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert module.__doc__, f"{name} has no module docstring"

    def test_on_disk_modules_match_registry(self):
        package_dir = pathlib.Path(repro.experiments.__file__).parent
        on_disk = {path.stem for path in package_dir.glob("*.py")
                   if path.stem not in ("__init__", "common", "registry")}
        assert on_disk == set(EXPERIMENTS)

    def test_no_duplicate_names(self):
        assert len(EXPERIMENTS) == len(set(EXPERIMENTS))


class TestCommands:
    def test_run_prints_summary(self, capsys):
        rc = main(["run", "--workers", "2", "--duration", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "requests completed" in out
        assert "hermes" in out

    def test_run_each_mode(self, capsys):
        for mode in ("exclusive", "reuseport", "herd"):
            rc = main(["run", "--mode", mode, "--workers", "2",
                       "--duration", "0.3"])
            assert rc == 0
            assert mode in capsys.readouterr().out

    def test_compare_prints_all_modes(self, capsys):
        rc = main(["compare", "--workers", "2", "--duration", "0.5",
                   "--case", "case1", "--load", "light"])
        out = capsys.readouterr().out
        assert rc == 0
        for mode in ("exclusive", "reuseport", "hermes"):
            assert mode in out

    def test_experiment_dispatch(self, capsys):
        rc = main(["experiment", "table4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Region1" in out

    def test_experiment_fig12(self, capsys):
        rc = main(["experiment", "fig12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "peak reduction" in out

    def test_run_with_trace_writes_chrome_json(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc = main(["run", "--workers", "2", "--duration", "0.3",
                   "--trace", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace:" in out
        document = json.loads(path.read_text())
        names = {r.get("name") for r in document["traceEvents"]}
        assert "request.service" in names
        assert "epoll.dispatch" in names

    def test_trace_subcommand_chrome(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        rc = main(["trace", "--workers", "2", "--duration", "0.3",
                   "--out", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "requests reassembled" in out
        assert "kernel wait" in out
        document = json.loads(path.read_text())
        assert document["traceEvents"]

    def test_chaos_runs_plan_and_prints_timeline(self, capsys, tmp_path):
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        plan_path = tmp_path / "plan.json"
        FaultPlan(faults=(
            FaultSpec(kind=FaultKind.WORKER_HANG, at=0.3, duration=0.1,
                      target=0),
        ), seed=5).save(str(plan_path))
        rc = main(["chaos", "--plan", str(plan_path), "--workers", "2",
                   "--duration", "0.6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault timeline" in out
        assert "worker_hang" in out
        assert "faults fired" in out

    def test_chaos_missing_plan_file_errors(self, capsys, tmp_path):
        rc = main(["chaos", "--plan", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "cannot load fault plan" in capsys.readouterr().err

    def test_resilience_writes_canonical_json(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        rc = main(["resilience", "--workers", "2",
                   "--scenario", "nic_loss", "--out", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Resilience matrix" in out
        document = json.loads(path.read_text())
        assert document["seed"] == 7
        assert {c["mode"] for c in document["cells"]} \
            == {"exclusive", "reuseport", "hermes", "prequal", "splice"}

    def test_resilience_unknown_scenario_errors(self, capsys):
        rc = main(["resilience", "--scenario", "meteor"])
        assert rc == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_list_plain(self, capsys):
        rc = main(["list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in EXPERIMENTS:
            assert name in out
        assert "cells=" in out

    def test_list_json_emits_registry_metadata(self, capsys):
        rc = main(["list", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        entries = json.loads(out)
        assert [e["name"] for e in entries] == list(EXPERIMENTS)
        for entry in entries:
            assert entry["title"]
            assert entry["n_cells"] == len(entry["cell_keys"])

    def test_sweep_writes_canonical_document(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        rc = main(["sweep", "table3", "--seed", "11", "--no-cache",
                   "--set", 'cases=["case2"]', "--set", 'loads=["light"]',
                   "--set", "duration_scale=0.1", "--set", "n_workers=2",
                   "--set", "ports=[20001,20002]", "--set", "settle=0.5",
                   "--out", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sweep: 3 cells (3 executed, 0 cached)" in out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro.sweep/v1"
        assert document["experiment"] == "table3"
        assert [c["key"] for c in document["cells"]] == [
            "case2/light/exclusive", "case2/light/reuseport",
            "case2/light/hermes"]

    def test_sweep_require_cached_gates_on_misses(self, capsys, tmp_path):
        base = ["sweep", "table3", "--seed", "11",
                "--cache-dir", str(tmp_path / "cache"),
                "--set", 'cases=["case2"]', "--set", 'loads=["light"]',
                "--set", 'modes=["hermes"]',
                "--set", "duration_scale=0.1", "--set", "n_workers=2",
                "--set", "ports=[20001,20002]", "--set", "settle=0.5"]
        rc = main(base + ["--require-cached"])
        assert rc == 1
        assert "cache miss" in capsys.readouterr().err
        rc = main(base + ["--require-cached"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(0 executed, 1 cached)" in out

    def test_sweep_malformed_set_errors(self, capsys):
        rc = main(["sweep", "table3", "--set", "oops"])
        assert rc == 1
        assert "not key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["experiment", "fig13"], ["sweep", "fig13", "--no-cache"],
        ["resilience"]])
    def test_unread_override_is_refused(self, capsys, command):
        # A typo must not silently run the full-scale grid.
        rc = main(command + ["--set", "n_workers=2",
                             "--set", "durashun=0.3"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "durashun" in captured.err
        assert "accepted: " in captured.err and "n_workers" in captured.err

    def test_list_shows_tunables_for_every_experiment(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in EXPERIMENTS:
            index = next(i for i, line in enumerate(lines)
                         if line.startswith(name + " "))
            assert lines[index + 1].split()[0] == "tunables:", name

    def test_trace_subcommand_flight_jsonl(self, capsys, tmp_path):
        path = tmp_path / "flight.jsonl"
        rc = main(["trace", "--workers", "2", "--duration", "0.3",
                   "--flight", "64", "--format", "jsonl",
                   "--out", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flight recorder" in out
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 64
        for line in lines:
            json.loads(line)


class TestFleetCommand:
    SMALL = ["fleet", "--instances", "2", "--duration", "1.0"]

    def _summary(self, capsys, tmp_path, argv):
        path = tmp_path / "fleet.json"
        rc = main(argv + ["--out", str(path)])
        capsys.readouterr()
        assert rc == 0
        return json.loads(path.read_text())

    def test_checked_churn_run_has_no_pcc_violations(self, capsys, tmp_path):
        doc = self._summary(capsys, tmp_path, self.SMALL + ["--check"])
        assert doc["completed"] > 0
        assert doc["pcc_violations"] == 0

    def test_crash_breaks_stateful_and_migrates_stateless(self, capsys,
                                                          tmp_path):
        crash = ["--crash-at", "0.9"]
        stateful = self._summary(capsys, tmp_path, self.SMALL + crash
                                 + ["--policy", "stateful"])
        stateless = self._summary(capsys, tmp_path, self.SMALL + crash
                                  + ["--policy", "stateless", "--check"])
        assert stateful["broken_instance"] > 0
        assert stateless["broken_instance"] == 0
        assert stateless["migrated"] > 0
        assert stateless["pcc_violations"] == 0

    def test_sharded_output_is_identical_across_jobs(self, tmp_path, capsys):
        outputs = []
        for jobs in ("1", "2"):
            path = tmp_path / f"jobs{jobs}.json"
            rc = main(["fleet", "--instances", "4", "--duration", "1.0",
                       "--jobs", jobs, "--out", str(path)])
            assert rc == 0
            outputs.append(path.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]],
                             ids=["unsharded", "sharded"])
    @pytest.mark.parametrize("bad", [["--rate", "0"], ["--rate", "-5"],
                                     ["--duration", "0"]],
                             ids=["rate0", "rate-5", "duration0"])
    def test_rate_or_duration_that_cannot_be_honoured_exits_1(
            self, capsys, bad, jobs):
        rc = main(["fleet", "--instances", "2"] + bad + jobs)
        assert rc == 1
        assert "must be finite and > 0" in capsys.readouterr().err

    def test_sharded_crash_is_refused(self, capsys):
        rc = main(["fleet", "--jobs", "2", "--crash-at", "0.9"])
        assert rc == 1
        assert "--crash-at cannot be sharded" in capsys.readouterr().err


class TestCheckCommand:
    def test_check_parser_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.lint is False
        assert args.oracles is False
        assert args.scenarios is False
        assert args.paths is None
        assert args.seed == 7

    def test_check_parser_subsets(self):
        args = build_parser().parse_args(
            ["check", "--lint", "--path", "src", "--path", "tools",
             "--allowlist", "custom.txt"])
        assert args.lint is True
        assert args.paths == ["src", "tools"]
        assert args.allowlist == "custom.txt"

    def test_run_and_chaos_and_sweep_accept_check_flag(self):
        assert build_parser().parse_args(["run", "--check"]).check is True
        assert build_parser().parse_args(
            ["chaos", "--plan", "p.json", "--check"]).check is True
        assert build_parser().parse_args(
            ["sweep", "table3", "--check"]).check is True
        assert build_parser().parse_args(["run"]).check is False

    def test_check_lint_clean_repo(self, capsys):
        rc = main(["check", "--lint"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s)" in out
        assert "check: ok" in out

    def test_check_lint_finds_planted_nondeterminism(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        empty_allow = tmp_path / "allow.txt"
        empty_allow.write_text("")
        rc = main(["check", "--lint", "--path", str(bad),
                   "--allowlist", str(empty_allow)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "wall-clock" in captured.err

    def test_check_oracles_phase(self, capsys):
        rc = main(["check", "--oracles"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "comparison(s) agreed" in out

    @pytest.mark.parametrize("mode, tunables", [
        ("hermes", []),
        ("prequal", ["--set", "reuse_budget=2"]),
        ("splice", ["--set", "splice_after=2"]),
    ], ids=["hermes", "prequal", "splice"])
    def test_run_with_check_reports_and_passes(self, capsys, mode, tunables):
        # prequal arms the probe-pool conservation invariant, splice the
        # splice-ledger invariant, on top of the common monitors.
        rc = main(["run", "--mode", mode, "--workers", "2",
                   "--duration", "0.5", "--check"] + tunables)
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 violations" in out
        assert "invariant evaluation(s)" in out

    def test_chaos_with_check(self, capsys, tmp_path):
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        plan_path = tmp_path / "plan.json"
        FaultPlan(faults=(
            FaultSpec(kind=FaultKind.WORKER_CRASH, at=0.3, target=0,
                      detect_delay=0.005),
        ), seed=5).save(str(plan_path))
        rc = main(["chaos", "--plan", str(plan_path), "--workers", "2",
                   "--duration", "0.6", "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 violations" in out
        assert "fault timeline" in out

    def test_sweep_with_check(self, capsys, tmp_path):
        rc = main(["sweep", "table3", "--no-cache", "--check",
                   "--set", 'cases=["case2"]', "--set", 'loads=["light"]',
                   "--set", 'modes=["hermes"]',
                   "--set", "duration_scale=0.1", "--set", "n_workers=2",
                   "--set", "settle=0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 cells" in out
