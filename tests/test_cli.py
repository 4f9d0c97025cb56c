"""Tests for the command-line interface."""

import argparse
import hashlib
import importlib
import json
import pathlib
import re

import pytest

import repro.experiments
from repro.cli import EXPERIMENTS, build_parser, main
from repro.lb.server import NotificationMode

REPO = pathlib.Path(__file__).resolve().parents[1]


def _subparsers():
    """Subcommand name -> its argparse parser."""
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


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
        args = build_parser().parse_args(["run"])
        assert args.trace is None
        assert args.format is None
        assert args.flight is None
        assert args.faults is None

    def test_run_trace_flag(self):
        args = build_parser().parse_args(["run", "--trace", "out.json"])
        assert args.trace == "out.json"

    def test_chaos_requires_plan(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--faults"])
        args = build_parser().parse_args(["run", "--faults", "p.json"])
        assert args.faults == "p.json"
        assert args.mode == "hermes"

    def test_resilience_defaults(self):
        args = build_parser().parse_args(["experiment", "resilience"])
        assert args.seed is None
        assert args.overrides is None
        assert args.out is None
        assert repro.experiments.registry.get("resilience").default_seed \
            == 7

    def test_resilience_repeatable_scenarios(self):
        args = build_parser().parse_args(
            ["experiment", "resilience",
             "--set", 'scenarios=["worker_hang", "nic_loss"]',
             "--set", 'modes=["hermes"]'])
        assert args.overrides == ['scenarios=["worker_hang", "nic_loss"]',
                                  'modes=["hermes"]']

    def test_exactly_six_commands(self):
        assert set(_subparsers()) == {"run", "experiment", "list", "fleet",
                                      "check", "fuzz"}

    def test_every_annotation_resolves(self):
        import inspect
        import typing

        import repro.cli
        functions = [fn for _, fn in inspect.getmembers(repro.cli,
                                                        inspect.isfunction)
                     if fn.__module__ == repro.cli.__name__]
        assert len(functions) > 10
        for fn in functions:
            typing.get_type_hints(fn)

    def test_run_refuses_jobs(self):
        # run drives one cell in-process; a --jobs it would ignore is
        # refused rather than accepted and dropped.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--jobs", "2"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["experiment", "table3"])
        assert args.seed is None
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.overrides is None
        assert args.out is None
        assert not args.check

    def test_experiment_has_exactly_six_flags(self):
        flags = {action.option_strings[0]
                 for action in _subparsers()["experiment"]._actions
                 if action.option_strings and action.dest != "help"}
        assert flags == {"--seed", "--out", "--set", "--jobs", "--cache-dir",
                         "--check"}

    def test_sweep_repeatable_set(self):
        args = build_parser().parse_args(
            ["experiment", "table3", "--set", "n_workers=2",
             "--set", 'cases=["case1"]'])
        assert args.overrides == ["n_workers=2", 'cases=["case1"]']

    def test_sweep_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "nope"])

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table3", "--jobs", "0"])


#: The documents whose ``python -m repro ...`` lines must parse.
DOC_FILES = ("README.md", "EXPERIMENTS.md", "docs/API.md",
             "docs/PERFORMANCE.md", ".claude/skills/verify/SKILL.md")
#: The Python sources whose ``python -m repro ...`` lines must parse.
SOURCE_FILES = ("src/repro/cli.py", "src/repro/experiments/__init__.py",
                *sorted(str(path.relative_to(REPO))
                        for path in (REPO / "examples").glob("*.py")))

_INVOCATION = re.compile(r"python -m repro\s+(\S+)(.*)", re.S)
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _documented_invocations(text):
    """``(command, flags)`` for every ``python -m repro <command>`` in
    markdown ``text``: a fenced-block line with its indented continuation
    lines (``#`` comments dropped), or an inline code span, which may wrap."""
    snippets, prose = [], []
    lines = text.splitlines()
    fenced = False
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            prose.append(line)
        elif "python -m repro" in line:
            block = [line.split(" #")[0]]
            while (i + 1 < len(lines) and lines[i + 1][:1].isspace()
                   and lines[i + 1].strip()
                   and "python -m repro" not in lines[i + 1]):
                i += 1
                block.append(lines[i].split("#")[0])
            snippets.append(" ".join(block))
        i += 1
    snippets += [span for span in re.findall(r"`([^`]+)`", "\n".join(prose))
                 if "python -m repro" in span]
    found = []
    for snippet in snippets:
        match = _INVOCATION.search(snippet)
        if match:
            rest = re.split(r"\s(?:&&|\||;)\s", match.group(2))[0]
            found.append((match.group(1), _FLAG.findall(rest)))
    return found


def _source_invocations(text):
    """``(command, flags)`` for every ``python -m repro <command>`` in
    Python source ``text``, each read to the end of its line or to the
    first backtick, double quote or ``#`` (a docstring example, or a
    code span inside a string)."""
    return [(match.group(1), _FLAG.findall(match.group(2)))
            for match in re.finditer(r"python -m repro +([\w-]+)([^`\"#\n]*)",
                                     text)]


class TestDocsMatchTheParser:
    def test_documented_commands_and_flags_exist(self):
        commands = _subparsers()
        problems, seen = [], 0
        sources = ([(name, _documented_invocations) for name in DOC_FILES]
                   + [(name, _source_invocations) for name in SOURCE_FILES])
        for name, collect in sources:
            text = (REPO / name).read_text(encoding="utf-8")
            for command, flags in collect(text):
                seen += 1
                if command not in commands:
                    problems.append(f"{name}: `repro {command}` is not a "
                                    f"command")
                    continue
                known = commands[command]._option_string_actions
                problems += [f"{name}: `repro {command}` has no {flag}"
                             for flag in flags if flag not in known]
        assert seen >= 20
        assert not problems, "\n".join(problems)

    def test_collector_reads_wrapped_and_continued_invocations(self):
        text = ("Run `python -m repro\nrun --trace t.json` or:\n\n```\n"
                "python -m repro sweep <name> [--seed N]  # comment --x\n"
                "                     [--no-cache]   # --y\n\n"
                "python -m repro list\n```\n")
        assert _documented_invocations(text) == [
            ("sweep", ["--seed", "--no-cache"]), ("list", []),
            ("run", ["--trace"])]

    def test_collector_reads_docstring_lines_and_string_code_spans(self):
        text = ('    python -m repro experiment t3 --jobs 4  # --x\n'
                'print("as `python -m repro fleet --check`, or "\n'
                '      "`python -m repro sweep x`.")\n'
                '    python -m repro run --set \'m=["a"]\' --trace\n')
        assert _source_invocations(text) == [
            ("experiment", ["--jobs"]), ("fleet", ["--check"]),
            ("sweep", []), ("run", ["--set"])]


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
        # table3 --set modes=[...] renders a row for every mode it ran.
        all_modes = [mode.value for mode in NotificationMode]
        rc = main(["experiment", "table3", "--set", 'cases=["case1"]',
                   "--set", 'loads=["light"]',
                   "--set", f"modes={json.dumps(all_modes)}",
                   "--set", "duration_scale=0.1", "--set", "n_workers=2",
                   "--set", "ports=[443]", "--set", "settle=0.3"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split()[1] for line in out.splitlines()
                if line.startswith("case1 ")]
        assert rows == all_modes

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

    def test_run_trace_prints_timeline_rows(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        rc = main(["run", "--workers", "2", "--duration", "0.3",
                   "--trace", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "requests reassembled" in out
        assert "kernel wait" in out
        document = json.loads(path.read_text())
        assert document["traceEvents"]

    @pytest.mark.parametrize("flag", [["--flight", "64"],
                                      ["--format", "jsonl"]])
    def test_trace_shaping_without_trace_is_refused(self, capsys, flag):
        rc = main(["run", "--workers", "2", "--duration", "0.3"] + flag)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("duration", ["nan", "0", "-1", "inf"])
    def test_run_duration_that_cannot_be_honoured_exits_1(self, capsys,
                                                          duration):
        # Refused before it simulates, like the fleet's --rate/--duration.
        rc = main(["run", "--workers", "2", "--duration", duration])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "--duration must be finite and > 0" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag", ["--workers", "--ports"])
    def test_run_count_below_one_is_refused(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", flag, "0"])
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be >= 1, got 0" in err
        assert "Traceback" not in err

    def test_chaos_runs_plan_and_prints_timeline(self, capsys, tmp_path):
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        plan_path = tmp_path / "plan.json"
        FaultPlan(faults=(
            FaultSpec(kind=FaultKind.WORKER_HANG, at=0.3, duration=0.1,
                      target=0),
        ), seed=5).save(str(plan_path))
        rc = main(["run", "--faults", str(plan_path), "--workers", "2",
                   "--duration", "0.6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault timeline" in out
        assert "worker_hang" in out
        assert "faults fired" in out

    def test_chaos_missing_plan_file_errors(self, capsys, tmp_path):
        rc = main(["run", "--faults", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "cannot load fault plan" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, named", [
        ({"kind": "slow_worker", "at": 0.1, "magnitde": 2.0}, "magnitde"),
        ({"kind": "backend_brownout", "at": 0.1}, "backend_brownout"),
        ({"kind": "worker_hang", "at": 0.1, "server_id": 0}, "server_id"),
    ])
    def test_malformed_plan_is_refused(self, capsys, tmp_path, fault, named):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"faults": [fault], "seed": 0}))
        rc = main(["run", "--faults", str(plan_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: cannot load fault plan" in err and named in err

    def test_plan_the_device_cannot_host_is_refused(self, capsys, tmp_path):
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        plan_path = tmp_path / "plan.json"
        FaultPlan(faults=(
            FaultSpec(kind=FaultKind.WORKER_HANG, at=0.1, duration=0.1,
                      target=5),
        )).save(str(plan_path))
        rc = main(["run", "--faults", str(plan_path), "--workers", "2",
                   "--duration", "0.3"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "cannot arm" in captured.err and "out of range" in captured.err

    def test_empty_fault_plan_moves_no_result(self, capsys, tmp_path):
        # run --faults draws run's traffic: an empty plan (and the Nic it
        # attaches) adds the fault fields and changes nothing else.
        plan_path = tmp_path / "empty.json"
        plan_path.write_text('{"faults": [], "seed": 0}\n')
        base = ["run", "--workers", "2", "--duration", "0.5"]
        plain, faulted = tmp_path / "plain.json", tmp_path / "faulted.json"
        assert main(base + ["--out", str(plain)]) == 0
        assert main(base + ["--faults", str(plan_path),
                            "--out", str(faulted)]) == 0
        capsys.readouterr()
        expected = dict(json.loads(plain.read_text()), faults_fired=0,
                        faults_cleared=0, fault_log=[])
        assert json.loads(faulted.read_text()) == expected

    def test_resilience_writes_canonical_json(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        rc = main(["experiment", "resilience", "--set", "n_workers=2",
                   "--set", 'scenarios=["nic_loss"]', "--out", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Resilience matrix" in out
        document = json.loads(path.read_text())["merged"]
        assert document["seed"] == 7
        assert {c["mode"] for c in document["cells"]} \
            == {"exclusive", "reuseport", "hermes", "prequal", "splice"}

    def test_resilience_unknown_scenario_errors(self, capsys):
        # Refused before any cell runs.
        for command, override, message in [
                (["experiment", "resilience"], 'scenarios=["meteor"]',
                 "unknown scenario(s) meteor; choose from worker_hang"),
                (["experiment", "resilience", "--jobs", "2"],
                 'scenarios=["meteor"]', "unknown scenario(s) meteor"),
                (["experiment", "resilience"], 'modes=["bogus"]',
                 "unknown mode(s) bogus; choose from herd"),
                (["experiment", "table3"], 'modes=["bogus"]',
                 "unknown mode(s) bogus"),
                (["experiment", "table3"], "modes=hermes",
                 "must be a JSON list")]:
            rc = main(command + ["--set", override])
            captured = capsys.readouterr()
            assert rc == 1, command
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert message in captured.err

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
        rc = main(["experiment", "table3", "--seed", "11",
                   "--set", 'cases=["case2"]', "--set", 'loads=["light"]',
                   "--set", "duration_scale=0.1", "--set", "n_workers=2",
                   "--set", "ports=[20001,20002]", "--set", "settle=0.5",
                   "--out", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 cells (3 executed, 0 cached) jobs=1 wall=" in out
        assert f"sweep document -> {out_path}" in out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro.sweep/v1"
        assert document["experiment"] == "table3"
        assert [c["key"] for c in document["cells"]] == [
            "case2/light/exclusive", "case2/light/reuseport",
            "case2/light/hermes"]

    def test_sweep_claims_from_a_warm_cache_match_the_fresh_run(
            self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        base = ["experiment", "sec7", "--cache-dir", str(tmp_path / "cache"),
                "--set", "n_workers=2", "--set", "n_connections=40"]

        def claim_lines(out):
            return [line for line in out.splitlines()
                    if line.startswith("claim ")]

        # At this scale one claim fails; the exit status ignores claims.
        assert main(base + ["--out", str(out_path)]) == 0
        fresh = capsys.readouterr().out
        assert "(4 executed, 0 cached)" in fresh
        assert "claim hermes_crash_blast_near_one_worker: FAILS" in fresh
        assert main(base) == 0
        warm = capsys.readouterr().out
        assert "(0 executed, 4 cached)" in warm
        assert len(claim_lines(fresh)) == 5
        assert claim_lines(warm) == claim_lines(fresh)
        # Claims are printed, never stored in the canonical document.
        assert "claim" not in out_path.read_text()

    def test_sweep_malformed_set_errors(self, capsys):
        rc = main(["experiment", "table3", "--set", "oops"])
        assert rc == 1
        assert "not key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["experiment", "fig13"], ["experiment", "fig13", "--jobs", "2"],
        ["experiment", "resilience"]])
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

    def test_run_trace_flight_jsonl(self, capsys, tmp_path):
        path = tmp_path / "flight.jsonl"
        rc = main(["run", "--workers", "2", "--duration", "0.3",
                   "--flight", "64", "--format", "jsonl",
                   "--trace", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flight recorder" in out
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 64
        for line in lines:
            json.loads(line)

    def test_fuzz_unwritable_out_exits_1(self, capsys, tmp_path):
        out = tmp_path / "missing" / "report.json"
        rc = main(["fuzz", "--budget", "1", "--no-shrink",
                   "--family", "diurnal", "--fleet-fraction", "0",
                   "--out", str(out)])
        assert rc == 1
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not out.exists()


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

    #: Pin name -> the extra arguments of a run whose unsharded ``--out``
    #: document's SHA-256 is pinned as ``fleet_out/<name>``.
    PINNED_ARGS = {
        "check": "--check",
        "stateful-crash-ring-bounded":
            "--policy stateful --crash-at 0.9 --ingress ring_bounded",
        "exclusive-check": "--mode exclusive --check",
    }

    @pytest.mark.pin
    @pytest.mark.parametrize("name", sorted(PINNED_ARGS))
    def test_unsharded_document_is_pinned(self, capsys, tmp_path, name,
                                          pin):
        path = tmp_path / "fleet.json"
        rc = main(self.SMALL + self.PINNED_ARGS[name].split()
                  + ["--out", str(path)])
        capsys.readouterr()
        assert rc == 0
        pin(f"fleet_out/{name}",
            hashlib.sha256(path.read_bytes()).hexdigest())

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
    @pytest.mark.parametrize("bad, message", [
        (["--rate", "0"], "must be finite and > 0"),
        (["--rate", "-5"], "must be finite and > 0"),
        (["--duration", "0"], "must be finite and > 0"),
        (["--churn-k", "8"], "churn size must be in [1, 8), got 8"),
        (["--crash-at", "0.9", "--detect-delay", "-1"],
         "detect_delay must be >= 0"),
        (["--crash-at", "0.5", "--detect-delay", "nan"],
         "detect_delay must be finite, got nan"),
        (["--churn-at", "nan"], "at must be finite, got nan"),
        (["--crash-at", "nan"], "at must be finite, got nan"),
    ], ids=["rate0", "rate-5", "duration0", "churn-k8", "detect-delay-1",
            "detect-delay-nan", "churn-at-nan", "crash-at-nan"])
    def test_rate_or_duration_that_cannot_be_honoured_exits_1(
            self, capsys, bad, message, jobs):
        # Every input the fleet cannot honour is refused before it runs.
        rc = main(["fleet", "--instances", "2"] + bad + jobs)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

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
            ["run", "--faults", "p.json", "--check"]).check is True
        assert build_parser().parse_args(
            ["experiment", "table3", "--check"]).check is True
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
        rc = main(["run", "--faults", str(plan_path), "--workers", "2",
                   "--duration", "0.6", "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 violations" in out
        assert "fault timeline" in out

    def test_sweep_with_check(self, capsys, tmp_path):
        rc = main(["experiment", "table3", "--check",
                   "--set", 'cases=["case2"]', "--set", 'loads=["light"]',
                   "--set", 'modes=["hermes"]',
                   "--set", "duration_scale=0.1", "--set", "n_workers=2",
                   "--set", "settle=0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 cells" in out
