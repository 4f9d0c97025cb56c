"""Command-line interface.

::

    python -m repro run --mode hermes --case case2 --load medium
    python -m repro run --mode hermes --case case2 --trace out.json
    python -m repro run --trace last.jsonl --flight 256 --format jsonl
    python -m repro run --mode hermes --faults plan.json --check
    python -m repro run --mode prequal --set pool_size=32 --set policy=hcl
    python -m repro experiment table3
    python -m repro experiment resilience --set 'scenarios=["nic_loss"]'
    python -m repro experiment table3 --jobs 4 --cache-dir .sweep-cache
    python -m repro list --json
    python -m repro fleet --instances 8 --policy stateless --check
    python -m repro fleet --policy stateful --crash-at 0.9
    python -m repro check
    python -m repro check --lint
    python -m repro fuzz --budget 20 --seed 7

``run`` drives one device in one mode, on the same traffic every other
mode sees for that case, load and seed.  ``--trace`` records a
Chrome/Perfetto trace (``--format jsonl`` for JSONL, ``--flight N`` to keep
only the last N events) and prints the per-request critical-path
breakdown; ``--faults`` arms a declarative :class:`repro.faults.FaultPlan`
and prints the fault timeline next to the usual metrics.
``experiment`` runs one registered experiment's grid of cells —
parallel across processes (``--jobs``), memoized in a content-addressed
cache when given ``--cache-dir``, merged byte-identically to a serial
run — and prints its paper table, one ``claim <name>: holds|FAILS`` line
per paper claim and a cells/executed/cached summary line;
``list`` prints registry metadata (``--json`` for machines); ``fleet``
runs a whole :mod:`repro.fleet` fleet (ECMP/ring ingress tier spraying
flows over N LB instances) under backend churn and an optional instance
crash, with ``--check`` arming the per-connection-consistency (PCC)
monitor on top of the usual invariants; ``check`` is the correctness
gate (:mod:`repro.check`): nondeterminism lint, differential-oracle sweep,
and monitored end-to-end scenarios; ``fuzz`` runs an adversarial scenario
campaign.  ``run --check`` arms invariant monitors, live oracles and a
flight recorder on that specific run; ``experiment --check`` arms live
oracles around every executed cell — results stay byte-identical, or
the command fails.  Wall-clock performance is measured by
``bench/run.py``, not by this CLI.

``run`` and ``experiment`` share the same ``--seed`` /
``--out`` contract: explicit seed, optional canonical-JSON output.
``--set KEY=VALUE`` is the uniform override spelling: on ``run`` it sets
the selected mode's config tunables — any architecture whose registry
spec declares a ``config_factory`` accepts it (prequal, splice; ``repro
list`` shows both experiment and per-mode tunables) — on
``experiment`` it overrides the grid (``experiment resilience
--set 'scenarios=["nic_loss"]'`` is the fault × mode matrix for one
scenario).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from .analysis.reporting import render_table
from .experiments.registry import EXPERIMENT_MODULES
from .lb.server import NotificationMode

__all__ = ["main", "build_parser"]

#: Experiment names exposed through ``experiment``/``list`` —
#: sourced from the registry so the CLI cannot drift from the package.
EXPERIMENTS = list(EXPERIMENT_MODULES)

_CASES = ("case1", "case2", "case3", "case4")
_LOADS = ("light", "medium", "heavy")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_positive(flag: str, value: float) -> bool:
    """True if ``value`` is finite and > 0; else print why."""
    if not 0 < value < float("inf"):
        print(f"error: {flag} must be finite and > 0, got {value}",
              file=sys.stderr)
        return False
    return True


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        metavar="N",
                        help="worker processes for cell execution "
                             "(default: 1 = serial)")


def _parse_overrides(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse repeated ``--set key=value`` grid overrides.

    Values parse as JSON when possible (``n_workers=2``,
    ``cases=["case1"]``) and fall back to plain strings (``load=light``).
    """
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep or not key:
            raise argparse.ArgumentTypeError(
                f"override {pair!r} is not key=value")
        try:
            overrides[key] = json.loads(text)
        except json.JSONDecodeError:
            overrides[key] = text
    return overrides


def _grid_overrides(name: str,
                    pairs: Optional[Sequence[str]]) -> Optional[Dict[str, Any]]:
    """``--set`` pairs for experiment ``name``, or None after printing why
    they are refused (malformed, or a key the experiment does not read)."""
    from .experiments import registry

    try:
        overrides = _parse_overrides(pairs or [])
        registry.get(name).check_overrides(overrides)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return overrides


def _write_json(path: str, payload: str) -> bool:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
            if not payload.endswith("\n"):
                handle.write("\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hermes (SIGCOMM 2025) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one device under one workload")
    run.add_argument("--mode", default="hermes",
                     choices=[m.value for m in NotificationMode])
    run.add_argument("--case", default="case1", choices=_CASES)
    run.add_argument("--load", default="light", choices=_LOADS)
    run.add_argument("--workers", type=_positive_int, default=8)
    run.add_argument("--duration", type=float, default=2.0)
    run.add_argument("--ports", type=_positive_int, default=1,
                     help="number of tenant ports")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="record a Chrome/Perfetto trace to PATH and "
                          "print the per-request critical-path breakdown")
    run.add_argument("--format", default=None, choices=("chrome", "jsonl"),
                     help="--trace file format: chrome trace_event JSON "
                          "(Perfetto; the default) or JSONL")
    run.add_argument("--flight", type=_positive_int, metavar="N",
                     default=None,
                     help="flight-recorder mode for --trace: keep only the "
                          "last N events instead of the full trace")
    run.add_argument("--faults", metavar="PLAN.json", default=None,
                     help="arm a FaultPlan JSON file (see repro.faults.plan) "
                          "and print the fault timeline")
    run.add_argument("--out", metavar="PATH", default=None,
                     help="also write the run summary as canonical JSON")
    run.add_argument("--check", action="store_true",
                     help="arm invariant monitors and live differential "
                          "oracles (byte-identical results, or an error)")
    run.add_argument("--set", action="append", default=None,
                     metavar="KEY=VALUE", dest="overrides",
                     help="mode-config tunable override, repeatable "
                          "(modes with tunables: prequal, splice; see "
                          "`repro list`), e.g. --set pool_size=32")

    experiment = sub.add_parser(
        "experiment", help="run a registered paper experiment")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("--seed", type=int, default=None,
                            help="base seed (default: the experiment's "
                                 "registered default)")
    experiment.add_argument("--out", metavar="PATH", default=None,
                            help="also write the canonical sweep document "
                                 "(cells and merged result) to PATH")
    experiment.add_argument("--set", action="append", default=None,
                            metavar="KEY=VALUE", dest="overrides",
                            help="grid override, JSON-parsed (repeatable); "
                                 "see the experiment's tunables in "
                                 "`repro list`")
    _add_jobs(experiment)
    experiment.add_argument("--cache-dir", metavar="DIR", default=None,
                            help="memoize cells in the cache at DIR "
                                 "(default: no cache)")
    experiment.add_argument("--check", action="store_true",
                            help="arm live differential oracles around "
                                 "every executed cell (cache hits skip "
                                 "the check)")

    list_cmd = sub.add_parser(
        "list", help="list registered experiments (registry metadata)")
    list_cmd.add_argument("--json", action="store_true", dest="as_json",
                          help="emit machine-readable registry metadata")

    fleet = sub.add_parser(
        "fleet", help="run an LB fleet (ingress tier + N instances) under "
                      "backend churn and optional instance crash")
    fleet.add_argument("--instances", type=_positive_int, default=4,
                       help="LB instances behind the ingress tier")
    fleet.add_argument("--workers", type=_positive_int, default=2,
                       help="workers per instance")
    fleet.add_argument("--policy", default="stateless",
                       choices=("stateful", "stateless"),
                       help="connection lookup policy (repro.fleet.lookup)")
    fleet.add_argument("--ingress", default="ecmp",
                       choices=("ecmp", "ring", "ring_bounded"),
                       help="ingress flow-spray policy")
    fleet.add_argument("--mode", default="hermes",
                       choices=[m.value for m in NotificationMode])
    fleet.add_argument("--duration", type=float, default=1.5)
    fleet.add_argument("--rate", type=float, default=150.0,
                       help="steady connection rate (cps)")
    fleet.add_argument("--seed", type=int, default=31)
    fleet.add_argument("--churn-at", type=float, default=0.6,
                       help="backend churn time in seconds "
                            "(negative disables the churn)")
    fleet.add_argument("--churn-k", type=_positive_int, default=2,
                       help="backends replaced by the churn")
    fleet.add_argument("--crash-at", type=float, default=None,
                       help="crash the busiest instance at this time")
    fleet.add_argument("--detect-delay", type=float, default=0.005,
                       help="instance failure-detection window (s)")
    fleet.add_argument("--out", metavar="PATH", default=None,
                       help="also write the fleet summary as canonical JSON")
    fleet.add_argument("--check", action="store_true",
                       help="arm the PCC monitor, per-instance invariant "
                            "monitors, and live differential oracles")
    fleet.add_argument("--jobs", type=_positive_int, default=None,
                       metavar="N",
                       help="run sharded: one process per instance, merged "
                            "deterministically (output is byte-identical "
                            "for any N; incompatible with --crash-at and "
                            "ring_bounded ingress)")

    check = sub.add_parser(
        "check", help="correctness gate: nondeterminism lint, differential "
                      "oracles, and monitored end-to-end scenarios")
    check.add_argument("--lint", action="store_true",
                       help="run only the nondeterminism linter")
    check.add_argument("--oracles", action="store_true",
                       help="run only the offline oracle sweep")
    check.add_argument("--scenarios", action="store_true",
                       help="run only the monitored end-to-end scenarios")
    check.add_argument("--path", action="append", default=None,
                       metavar="DIR", dest="paths",
                       help="lint these paths (repeatable; default: src)")
    check.add_argument("--allowlist", metavar="FILE", default=None,
                       help="lint allowlist file (default: the packaged "
                            "src/repro/check/allowlist.txt)")
    check.add_argument("--seed", type=int, default=7,
                       help="seed for the monitored Table 3 scenario")

    fuzz = sub.add_parser(
        "fuzz", help="adversarial scenario fuzzing: seeded (workload x "
                     "faults x mode x fleet) scenarios under full "
                     "invariant/oracle monitoring, with shrinking")
    fuzz.add_argument("--budget", type=_positive_int, default=20,
                      help="number of scenarios to draw and run")
    fuzz.add_argument("--seed", type=int, default=7,
                      help="campaign seed (same seed => same scenarios "
                           "and byte-identical report)")
    _add_jobs(fuzz)
    fuzz.add_argument("--shrink", action="store_true", default=True,
                      dest="shrink", help="shrink violations to minimal "
                                          "reproducers (default)")
    fuzz.add_argument("--no-shrink", action="store_false", dest="shrink",
                      help="report violations without shrinking")
    fuzz.add_argument("--out", metavar="PATH", default=None,
                      help="write the canonical campaign report to PATH")
    fuzz.add_argument("--mode", action="append", default=None,
                      dest="modes", metavar="NAME",
                      help="restrict to these architecture modes "
                           "(repeatable)")
    fuzz.add_argument("--family", action="append", default=None,
                      dest="families", metavar="NAME",
                      help="restrict to these workload families "
                           "(repeatable)")
    fuzz.add_argument("--cache-dir", metavar="DIR", default=None,
                      help="memoize scenario runs through the sweep cell "
                           "cache at DIR")
    fuzz.add_argument("--drill", metavar="NAME", default=None,
                      choices=("corrupt_bitmap",),
                      help="plant a deliberate bug in every scenario "
                           "(self-test: the fuzzer must find it)")
    fuzz.add_argument("--regressions", metavar="DIR",
                      default="fuzz-regressions",
                      help="directory where shrunk finds register as "
                           "named regression scenarios")
    fuzz.add_argument("--fleet-fraction", type=float, default=0.25,
                      help="fraction of scenarios run as a fleet")
    return parser


def _cmd_run(args) -> int:
    from .experiments.common import run_case_cell
    from .faults import FaultArmError, FaultPlan
    from .lb.modes import get_mode, iter_modes

    if not _finite_positive("--duration", args.duration):
        return 1
    if args.trace is None and (args.flight is not None
                               or args.format is not None):
        print("error: --flight and --format shape the trace file; "
              "give --trace PATH", file=sys.stderr)
        return 1
    mode = NotificationMode(args.mode)
    mode_spec = get_mode(mode.value)
    options: Dict[str, Any] = {}
    if args.overrides:
        if mode_spec.config_factory is None:
            tunable_modes = ", ".join(
                s.name for s in iter_modes() if s.config_factory is not None)
            print(f"error: mode {mode.value!r} has no --set tunables "
                  f"(modes with tunables: {tunable_modes})",
                  file=sys.stderr)
            return 1
        try:
            options[mode_spec.config_kwarg] = mode_spec.config_factory(
                _parse_overrides(args.overrides))
        except (argparse.ArgumentTypeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.faults:
        from .kernel.nic import Nic
        try:
            plan = FaultPlan.load(args.faults)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load fault plan {args.faults}: {exc}",
                  file=sys.stderr)
            return 1
        # A lossless Nic, so nic_loss plans arm; it moves no result.
        options.update(faults=plan, nic=Nic(n_queues=args.workers))
    recorder = None
    if args.trace:
        from .obs import FlightRecorder, Tracer
        if args.flight is not None:
            recorder = FlightRecorder(capacity=args.flight)
        options["tracer"] = Tracer(recorder=recorder,
                                   keep_events=recorder is None)
    ports = tuple(20001 + i for i in range(args.ports))
    try:
        result = run_case_cell(mode, args.case, args.load,
                               n_workers=args.workers,
                               duration=args.duration, ports=ports,
                               seed=args.seed, check=args.check, **options)
    except FaultArmError as exc:
        print(f"error: cannot arm {args.faults}: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        if not args.check:
            raise
        # InvariantViolation / OracleMismatch from the armed checks.
        print(f"check FAILED: {exc}", file=sys.stderr)
        return 1
    if args.check:
        print(f"check: {sum(result.passes.values())} invariant "
              f"evaluation(s), {sum(result.comparisons.values())} live "
              f"oracle comparison(s), 0 violations")
    injector = result.injector
    rows = [["mode", result.mode],
            ["workload", result.workload],
            ["requests completed", result.completed],
            ["failed", result.failed],
            ["refused", result.refused],
            ["avg latency (ms)", f"{result.avg_ms:.3f}"],
            ["p99 latency (ms)", f"{result.p99_ms:.3f}"],
            ["throughput (kRPS)", f"{result.throughput_rps / 1e3:.2f}"],
            ["cpu SD", f"{result.cpu_sd * 100:.2f}%"],
            ["accepted/worker", str(result.accepted_per_worker)]]
    title = f"{result.mode} on {result.workload}"
    if injector is not None:
        fault_rows = [[f"{r['t']:.4f}", r["event"], r["kind"],
                       "-" if r.get("worker") is None else r["worker"]]
                      for r in injector.log]
        print(render_table(["t (s)", "event", "fault", "worker"], fault_rows,
                           title=f"fault timeline ({len(plan.faults)} "
                                 f"specs, seed {plan.seed})"))
        rows += [["faults fired", injector.faults_fired],
                 ["faults cleared", injector.faults_cleared]]
        title += f" under {args.faults}"
    if args.trace:
        events = (recorder.snapshot() if recorder is not None
                  else options["tracer"].events)
        rows += _timeline_rows(events, recorder)
    print(render_table(["metric", "value"], rows, title=title))
    if args.out:
        doc = result.to_doc()
        if injector is not None:
            doc.update(faults_fired=injector.faults_fired,
                       faults_cleared=injector.faults_cleared,
                       fault_log=injector.log)
        if not _write_json(args.out, json.dumps(doc, indent=2,
                                                sort_keys=True)):
            return 1
        print(f"summary -> {args.out}")
    if args.trace:
        from .obs import write_chrome_trace, write_jsonl
        jsonl = args.format == "jsonl"
        try:
            n = (write_jsonl if jsonl else write_chrome_trace)(events,
                                                               args.trace)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"trace: {n} events -> {args.trace}"
              + ("" if jsonl else " (open at https://ui.perfetto.dev)"))
    return 0


def _timeline_rows(events, recorder) -> List[List[Any]]:
    """Summary rows of the per-request critical paths in ``events``."""
    from .obs import build_timelines, summarize_timelines

    summary = summarize_timelines(build_timelines(events))
    rows: List[List[Any]] = [
        ["events traced", len(events)],
        ["requests reassembled", summary["count"]],
        ["  kernel wait (ms)", f"{summary['avg_kernel_wait'] * 1e3:.3f}"],
        ["  queue wait (ms)", f"{summary['avg_queue_wait'] * 1e3:.3f}"],
        ["  service (ms)", f"{summary['avg_service'] * 1e3:.3f}"]]
    if recorder is not None:
        rows.append(["flight recorder",
                     f"kept {len(recorder)}/{recorder.capacity}, "
                     f"saw {recorder.total_recorded}"])
    return rows


def _cmd_experiment(args) -> int:
    # argparse validated the name against EXPERIMENTS already.
    from .sweep import run_sweep

    overrides = _grid_overrides(args.name, args.overrides)
    if overrides is None:
        return 1
    try:
        result = run_sweep(args.name, seed=args.seed, jobs=args.jobs,
                           cache=args.cache_dir, overrides=overrides,
                           check=args.check)
    except AssertionError as exc:
        if not args.check:
            raise
        print(f"check FAILED: {exc}", file=sys.stderr)
        return 1
    print(result.render())
    print(f"{len(result.runs)} cells "
          f"({result.executed} executed, {result.cached} cached) "
          f"jobs={result.jobs} wall={result.wall_seconds:.2f}s")
    if args.out:
        if not _write_json(args.out, result.to_json()):
            return 1
        print(f"sweep document -> {args.out}")
    return 0


def _cmd_fleet_sharded(args) -> int:
    from .fleet.sharded import run_sharded_fleet

    if args.crash_at is not None:
        print("error: --crash-at cannot be sharded (failover migrates "
              "connections between instances); drop --jobs", file=sys.stderr)
        return 1
    if args.mode != "hermes":
        print("error: sharded fleet runs hermes mode only", file=sys.stderr)
        return 1
    try:
        doc = run_sharded_fleet(
            policy=args.policy, n_instances=args.instances,
            n_workers=args.workers, seed=args.seed, duration=args.duration,
            conn_rate=args.rate,
            churn_at=(args.churn_at if args.churn_at is not None
                      and args.churn_at >= 0 else None),
            churn_k=args.churn_k, ingress=args.ingress, jobs=args.jobs,
            check=args.check)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.check:
        print(f"check: {sum(doc['passes'].values())} invariant "
              f"evaluation(s), {doc['pcc_violations']} PCC violation(s)")
    print(render_table(
        ["metric", "value"],
        [["policy", doc["policy"]],
         ["ingress", doc["ingress"]],
         ["instances (shards)", doc["instances"]],
         ["jobs", args.jobs],
         ["requests completed", doc["completed"]],
         ["failed", doc["failed"]],
         ["broken (backend)", doc["broken_backend"]],
         ["backend map version", doc["backend_version"]],
         ["foreign arrivals (other shards)", doc["foreign"]],
         ["avg latency (ms)", f"{doc['avg_ms']:.3f}"],
         ["p99 latency (ms)", f"{doc['p99_ms']:.3f}"],
         ["throughput (kRPS)", f"{doc['throughput_rps'] / 1e3:.2f}"]],
        title=f"sharded hermes fleet of {args.instances} "
              f"({args.policy} lookup, {args.ingress} ingress, "
              f"jobs={args.jobs})"))
    if args.out:
        if not _write_json(args.out, json.dumps(doc, indent=2,
                                                sort_keys=True)):
            return 1
        print(f"summary -> {args.out}")
    return 0


def _cmd_fleet(args) -> int:
    from .faults import FaultArmError
    from .fleet import fleet_faults, fleet_spec, run_fleet

    try:
        # Checked for the sharded path too, so both refuse the same input.
        fleet_spec(args.duration, args.rate)
        plan = fleet_faults(args.seed, churn_at=args.churn_at,
                            churn_k=args.churn_k, crash_at=args.crash_at,
                            detect_delay=args.detect_delay)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.jobs is not None:
        return _cmd_fleet_sharded(args)

    try:
        run = run_fleet(
            mode=args.mode, policy=args.policy, ingress=args.ingress,
            n_instances=args.instances, n_workers=args.workers,
            seed=args.seed, duration=args.duration, conn_rate=args.rate,
            churn_at=args.churn_at, churn_k=args.churn_k,
            crash_at=args.crash_at, detect_delay=args.detect_delay,
            check=args.check)
    except FaultArmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        if not args.check:
            raise
        print(f"check FAILED: {exc}", file=sys.stderr)
        return 1
    if args.check:
        print(f"check: {sum(run.passes.values())} invariant evaluation(s), "
              f"{sum(run.comparisons.values())} live oracle comparison(s), "
              f"{len(run.pcc.violations)} PCC violation(s)")

    summary = run.doc
    if plan is not None:
        injector = run.cell.injector
        fault_rows = [[f"{r['t']:.4f}", r["event"], r["kind"],
                       r.get("instance", "-" if "churn" not in r
                             else f"churn k={r['churn']}")]
                      for r in (injector.log if injector else ())]
        print(render_table(["t (s)", "event", "fault", "target"], fault_rows,
                           title=f"fault timeline ({len(plan.faults)} specs, "
                                 f"seed {plan.seed})"))
    print(render_table(
        ["metric", "value"],
        [["policy", summary["policy"]],
         ["ingress", summary["ingress"]],
         ["instances", args.instances],
         ["requests completed", summary["completed"]],
         ["failed", summary["failed"]],
         ["broken (instance)", summary["broken_instance"]],
         ["broken (backend)", summary["broken_backend"]],
         ["migrated", summary["migrated"]],
         ["backend map version", summary["backend_version"]],
         ["avg latency (ms)", f"{summary['avg_ms']:.3f}"],
         ["p99 latency (ms)", f"{summary['p99_ms']:.3f}"],
         ["throughput (kRPS)", f"{summary['throughput_rps'] / 1e3:.2f}"]],
        title=f"{args.mode} fleet of {args.instances} "
              f"({args.policy} lookup, {args.ingress} ingress)"))
    if args.out:
        if not _write_json(args.out, json.dumps(summary, indent=2,
                                                sort_keys=True)):
            return 1
        print(f"summary -> {args.out}")
    return 0


def _cmd_check(args) -> int:
    from .check import run_check

    selected = (args.lint, args.oracles, args.scenarios)
    everything = not any(selected)
    report = run_check(
        lint=everything or args.lint,
        oracles=everything or args.oracles,
        scenarios=everything or args.scenarios,
        paths=tuple(args.paths) if args.paths else ("src",),
        allowlist=args.allowlist,
        seed=args.seed,
        out=print)
    for finding in report.lint_findings:
        print(f"lint: {finding}", file=sys.stderr)
    for problem in report.problems:
        print(f"error: {problem}", file=sys.stderr)
    if not report.ok:
        return 1
    print("check: ok")
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz import run_fuzz
    from .sweep.cache import CellCache

    cache = CellCache(args.cache_dir) if args.cache_dir else None
    report = run_fuzz(
        budget=args.budget, seed=args.seed, jobs=args.jobs,
        shrink=args.shrink, cache=cache, modes=args.modes,
        families=args.families, drill=args.drill,
        regressions_dir=args.regressions,
        fleet_fraction=args.fleet_fraction, progress=print)
    doc = report.document()
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if args.out and not _write_json(args.out, payload):
        return 1
    print(f"fuzz: {args.budget} scenario(s), seed {args.seed}, "
          f"{doc['n_violations']} violation(s), "
          f"{len(report.finds)} find(s)")
    for find in report.finds:
        print(f"  {find['name']}: {find['signature'][0]}/"
              f"{find['signature'][1]} "
              f"(verified={find['verified']}, "
              f"registered under {args.regressions})")
    return 0 if report.ok else 1


def _cmd_list(args) -> int:
    from .experiments import registry
    from .lb.modes import iter_modes

    if args.as_json:
        print(json.dumps([registry.describe(name) for name in EXPERIMENTS],
                         indent=2, sort_keys=True))
        return 0
    for name in EXPERIMENTS:
        info = registry.describe(name)
        print(f"{name:14s} cells={info['n_cells']:3d} "
              f"seed={info['default_seed']:4d}  {info['title']}")
        if info["tunables"]:
            print(f"{'':14s} tunables: "
                  + ", ".join(sorted(info["tunables"])))
    print()
    print("architectures (repro run --mode NAME):")
    for spec in iter_modes():
        print(f"{spec.name:20s} {spec.description}")
        tunables = spec.tunables()
        if tunables:
            rendered = ", ".join(f"{key}={value}"
                                 for key, value in sorted(tunables.items()))
            print(f"{'':20s} --set tunables: {rendered}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "list": _cmd_list,
        "fleet": _cmd_fleet,
        "check": _cmd_check,
        "fuzz": _cmd_fuzz,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
