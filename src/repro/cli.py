"""Command-line interface.

::

    python -m repro run --mode hermes --case case2 --load medium
    python -m repro run --mode hermes --case case2 --trace out.json
    python -m repro run --mode prequal --set pool_size=32 --set policy=hcl
    python -m repro trace --case case2 --load medium --out trace.json
    python -m repro compare --case case3 --load heavy
    python -m repro experiment table3
    python -m repro sweep table3 --jobs 4
    python -m repro list --json
    python -m repro chaos --plan plan.json --mode hermes
    python -m repro fleet --instances 8 --policy stateless --check
    python -m repro fleet --policy stateful --crash-at 0.9
    python -m repro resilience --seed 7 --out matrix.json
    python -m repro resilience --mode hermes --mode prequal
    python -m repro perf --quick --check BENCH_perf.json
    python -m repro check
    python -m repro check --lint
    python -m repro run --mode hermes --check

``run`` drives one device in one mode (``--trace`` additionally records a
Chrome/Perfetto trace); ``trace`` runs a scenario with full tracing and
prints the per-request critical-path breakdown; ``compare`` A/Bs all
Table-3 modes on identical traffic; ``experiment`` runs one registered
experiment through the unified Scenario API and prints its paper table;
``sweep`` runs the same grid decomposed into cells — parallel across
processes (``--jobs``), memoized in a content-addressed cache, merged
byte-identically to a serial run; ``list`` prints registry metadata
(``--json`` for machines); ``chaos`` arms a declarative
:class:`repro.faults.FaultPlan` against one device and prints the fault
timeline next to the usual metrics; ``fleet`` runs a whole
:mod:`repro.fleet` fleet (ECMP/ring ingress tier spraying flows over N
LB instances) under backend churn and an optional instance crash, with
``--check`` arming the per-connection-consistency (PCC) monitor on top
of the usual invariants; ``resilience`` runs the fault ×
notification-mode matrix (``--out`` writes canonical JSON, byte-identical
for identical seeds); ``perf`` runs
the calibrated benchmark suite (:mod:`repro.perf`) and writes the canonical
``BENCH_perf.json`` report, optionally gating on a committed baseline;
``check`` is the correctness gate (:mod:`repro.check`): nondeterminism
lint, differential-oracle sweep, and monitored end-to-end scenarios.
``run``, ``chaos`` and ``sweep`` additionally accept ``--check`` to arm
invariant monitors and live oracles on that specific run — results stay
byte-identical, or the command fails.

``run``, ``experiment``, ``chaos``, ``resilience`` and ``sweep`` share the
same ``--seed`` / ``--out`` / ``--jobs`` contract: explicit seed, optional
canonical-JSON output, worker process count (single-device commands accept
``--jobs`` for interface uniformity and validate it, but execute their one
cell in-process).  ``--set KEY=VALUE`` is the uniform override spelling:
on ``run`` it sets the selected mode's config tunables — any architecture
whose registry spec declares a ``config_factory`` accepts it (prequal,
splice; ``repro list`` shows both experiment and per-mode tunables) — on
``experiment``/``sweep``/``resilience`` it overrides the grid.
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

#: Experiment names exposed through ``experiment``/``sweep``/``list`` —
#: sourced from the registry so the CLI cannot drift from the package.
EXPERIMENTS = list(EXPERIMENT_MODULES)

_CASES = ("case1", "case2", "case3", "case4")
_LOADS = ("light", "medium", "heavy")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
    run.add_argument("--workers", type=int, default=8)
    run.add_argument("--duration", type=float, default=2.0)
    run.add_argument("--ports", type=int, default=1,
                     help="number of tenant ports")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="record a Chrome/Perfetto trace to PATH")
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
    _add_jobs(run)

    trace = sub.add_parser(
        "trace", help="run a scenario with full tracing and write a "
                      "Perfetto-openable trace file")
    trace.add_argument("--mode", default="hermes",
                       choices=[m.value for m in NotificationMode])
    trace.add_argument("--case", default="case2", choices=_CASES)
    trace.add_argument("--load", default="medium", choices=_LOADS)
    trace.add_argument("--workers", type=int, default=8)
    trace.add_argument("--duration", type=float, default=2.0)
    trace.add_argument("--ports", type=int, default=1)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--out", default="trace.json",
                       help="output path (default: trace.json)")
    trace.add_argument("--format", default="chrome",
                       choices=("chrome", "jsonl"),
                       help="chrome trace_event JSON (Perfetto) or JSONL")
    trace.add_argument("--flight", type=_positive_int, metavar="N",
                       default=None,
                       help="flight-recorder mode: keep only the last N "
                            "events instead of the full trace")

    compare = sub.add_parser(
        "compare", help="A/B all Table-3 modes on identical traffic")
    compare.add_argument("--case", default="case3", choices=_CASES)
    compare.add_argument("--load", default="medium", choices=_LOADS)
    compare.add_argument("--workers", type=int, default=8)
    compare.add_argument("--duration", type=float, default=3.0)
    compare.add_argument("--seed", type=int, default=11)
    compare.add_argument("--all-modes", action="store_true",
                         help="include herd/rr/io_uring/dispatcher too")

    experiment = sub.add_parser(
        "experiment", help="run a registered paper experiment")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("--seed", type=int, default=None,
                            help="base seed (default: the experiment's "
                                 "registered default)")
    experiment.add_argument("--out", metavar="PATH", default=None,
                            help="also write the merged result as "
                                 "canonical JSON")
    experiment.add_argument("--set", action="append", default=None,
                            metavar="KEY=VALUE", dest="overrides",
                            help="grid override, JSON-parsed (repeatable); "
                                 "see the experiment's tunables in "
                                 "`repro list`")
    _add_jobs(experiment)

    sweep = sub.add_parser(
        "sweep", help="run an experiment as a parallel, cached cell sweep")
    sweep.add_argument("name", choices=EXPERIMENTS)
    sweep.add_argument("--seed", type=int, default=None,
                       help="base seed (default: the experiment's "
                            "registered default)")
    sweep.add_argument("--out", metavar="PATH", default=None,
                       help="write the canonical sweep document to PATH")
    _add_jobs(sweep)
    sweep.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="cell cache directory (default: .sweep-cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable cell memoization entirely")
    sweep.add_argument("--force", action="store_true",
                       help="ignore cached cells (still refresh the cache)")
    sweep.add_argument("--set", action="append", default=None,
                       metavar="KEY=VALUE", dest="overrides",
                       help="grid override, JSON-parsed (repeatable), "
                            "e.g. --set n_workers=2")
    sweep.add_argument("--require-cached", action="store_true",
                       help="fail if any cell had to execute (CI check "
                            "that a warm cache fully covers the grid)")
    sweep.add_argument("--check", action="store_true",
                       help="arm live differential oracles around every "
                            "executed cell (cache hits skip the check)")

    list_cmd = sub.add_parser(
        "list", help="list registered experiments (registry metadata)")
    list_cmd.add_argument("--json", action="store_true", dest="as_json",
                          help="emit machine-readable registry metadata")

    chaos = sub.add_parser(
        "chaos", help="run one device with a FaultPlan armed against it")
    chaos.add_argument("--plan", required=True, metavar="PLAN.json",
                       help="FaultPlan JSON file (see repro.faults.plan)")
    chaos.add_argument("--mode", default="hermes",
                       choices=[m.value for m in NotificationMode])
    chaos.add_argument("--case", default="case1", choices=_CASES)
    chaos.add_argument("--load", default="light", choices=_LOADS)
    chaos.add_argument("--workers", type=int, default=8)
    chaos.add_argument("--duration", type=float, default=3.0)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--trace", metavar="PATH", default=None,
                       help="record a Chrome/Perfetto trace to PATH")
    chaos.add_argument("--out", metavar="PATH", default=None,
                       help="also write the run summary as canonical JSON")
    chaos.add_argument("--check", action="store_true",
                       help="arm invariant monitors and live differential "
                            "oracles (byte-identical results, or an error)")
    _add_jobs(chaos)

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

    resilience = sub.add_parser(
        "resilience", help="fault x mode resilience matrix")
    resilience.add_argument("--seed", type=int, default=7)
    resilience.add_argument("--workers", type=int, default=8)
    resilience.add_argument("--scenario", action="append", default=None,
                            metavar="NAME", dest="scenarios",
                            help="run only this scenario (repeatable)")
    resilience.add_argument("--mode", action="append", default=None,
                            metavar="MODE", dest="modes",
                            choices=[m.value for m in NotificationMode],
                            help="run only this mode (repeatable; default: "
                                 "exclusive, reuseport, hermes, prequal, "
                                 "splice)")
    resilience.add_argument("--out", metavar="PATH", default=None,
                            help="also write the matrix as canonical JSON")
    resilience.add_argument("--set", action="append", default=None,
                            metavar="KEY=VALUE", dest="overrides",
                            help="grid override, JSON-parsed (repeatable)")
    _add_jobs(resilience)

    perf = sub.add_parser(
        "perf", help="run the calibrated benchmark suite and write "
                     "BENCH_perf.json")
    perf.add_argument("--quick", action="store_true",
                      help="reduced scales for CI smoke runs")
    perf.add_argument("--out", metavar="PATH", default="BENCH_perf.json",
                      help="report path (default: BENCH_perf.json)")
    perf.add_argument("--bench", action="append", default=None,
                      metavar="NAME", dest="benches",
                      help="run only this bench (repeatable)")
    perf.add_argument("--repeats", type=_positive_int, default=3,
                      help="timing repeats per bench (best is kept)")
    perf.add_argument("--check", metavar="COMMITTED.json", default=None,
                      help="fail (exit 1) if a gated bench's normalized "
                           "score regressed >20%% vs this committed report")

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


def _check_context(enabled: bool):
    """``(context_manager, monitors)`` for a ``--check``-capable command.

    When enabled, the context patches live differential oracles in and
    the returned ``env_hook`` arms an invariant monitor on the server.
    """
    from contextlib import nullcontext

    monitors: List[Any] = []
    if not enabled:
        return nullcontext(), monitors, None
    from .check import live_oracles, watch

    def hook(env, server, gen):
        monitors.append(watch(server))

    return live_oracles(), monitors, hook


def _finish_check(monitors, stats) -> None:
    passes = monitors[0].finalize() if monitors else {}
    print(f"check: {sum(passes.values())} invariant evaluation(s), "
          f"{stats.total if stats is not None else 0} live oracle "
          f"comparison(s), 0 violations")


def _cmd_run(args) -> int:
    from .experiments.common import run_case_cell

    from .lb.modes import get_mode, iter_modes

    mode = NotificationMode(args.mode)
    mode_spec = get_mode(mode.value)
    config_kwargs: Dict[str, Any] = {}
    if args.overrides:
        if mode_spec.config_factory is None:
            tunable_modes = ", ".join(
                s.name for s in iter_modes() if s.config_factory is not None)
            print(f"error: mode {mode.value!r} has no --set tunables "
                  f"(modes with tunables: {tunable_modes})",
                  file=sys.stderr)
            return 1
        try:
            config_kwargs[mode_spec.config_kwarg] = mode_spec.config_factory(
                _parse_overrides(args.overrides))
        except (argparse.ArgumentTypeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    ports = tuple(20001 + i for i in range(args.ports))
    tracer = None
    if getattr(args, "trace", None):
        from .obs import Tracer
        tracer = Tracer()
    context, monitors, hook = _check_context(args.check)
    try:
        with context as stats:
            result = run_case_cell(mode, args.case, args.load,
                                   n_workers=args.workers,
                                   duration=args.duration, ports=ports,
                                   seed=args.seed, tracer=tracer,
                                   env_hook=hook, **config_kwargs)
    except AssertionError as exc:
        if not args.check:
            raise
        # InvariantViolation / OracleMismatch from the armed checks.
        print(f"check FAILED: {exc}", file=sys.stderr)
        return 1
    if args.check:
        _finish_check(monitors, stats)
    print(render_table(
        ["metric", "value"],
        [["mode", result.mode],
         ["workload", result.workload],
         ["requests completed", result.completed],
         ["failed", result.failed],
         ["refused", result.refused],
         ["avg latency (ms)", f"{result.avg_ms:.3f}"],
         ["p99 latency (ms)", f"{result.p99_ms:.3f}"],
         ["throughput (kRPS)", f"{result.throughput_rps / 1e3:.2f}"],
         ["cpu SD", f"{result.cpu_sd * 100:.2f}%"],
         ["accepted/worker", str(result.accepted_per_worker)]],
        title=f"{result.mode} on {result.workload}"))
    if getattr(args, "out", None):
        if not _write_json(args.out, json.dumps(result.to_doc(),
                                                indent=2, sort_keys=True)):
            return 1
        print(f"summary -> {args.out}")
    if tracer is not None:
        from .obs import write_chrome_trace
        try:
            n = write_chrome_trace(tracer.events, args.trace)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"trace: {n} events -> {args.trace} "
              f"(open at https://ui.perfetto.dev)")
    return 0


def _cmd_trace(args) -> int:
    from .experiments.common import run_case_cell
    from .obs import (FlightRecorder, Tracer, build_timelines,
                      summarize_timelines, write_chrome_trace, write_jsonl)

    mode = NotificationMode(args.mode)
    ports = tuple(20001 + i for i in range(args.ports))
    recorder = None
    if args.flight is not None:
        recorder = FlightRecorder(capacity=args.flight)
    tracer = Tracer(recorder=recorder, keep_events=recorder is None)
    result = run_case_cell(mode, args.case, args.load,
                           n_workers=args.workers, duration=args.duration,
                           ports=ports, seed=args.seed, tracer=tracer)
    events = recorder.snapshot() if recorder is not None else tracer.events
    try:
        if args.format == "chrome":
            n = write_chrome_trace(events, args.out)
        else:
            n = write_jsonl(events, args.out)
    except OSError as exc:
        print(f"error: cannot write trace to {args.out}: {exc}",
              file=sys.stderr)
        return 1
    summary = summarize_timelines(build_timelines(events))
    rows = [["mode", result.mode],
            ["workload", result.workload],
            ["events traced", len(events)],
            ["requests reassembled", summary["count"]],
            ["avg latency (ms)", f"{summary['avg_latency'] * 1e3:.3f}"],
            ["  kernel wait (ms)",
             f"{summary['avg_kernel_wait'] * 1e3:.3f}"],
            ["  queue wait (ms)", f"{summary['avg_queue_wait'] * 1e3:.3f}"],
            ["  service (ms)", f"{summary['avg_service'] * 1e3:.3f}"]]
    if recorder is not None:
        rows.append(["flight recorder",
                     f"kept {len(recorder)}/{recorder.capacity}, "
                     f"saw {recorder.total_recorded}"])
    print(render_table(["metric", "value"], rows,
                       title=f"trace of {result.mode} on {result.workload}"))
    print(f"trace: {n} records -> {args.out}"
          + (" (open at https://ui.perfetto.dev)"
             if args.format == "chrome" else ""))
    return 0


def _cmd_compare(args) -> int:
    from .experiments.common import MODES_UNDER_TEST, run_case_cell

    modes: Sequence[NotificationMode] = MODES_UNDER_TEST
    if args.all_modes:
        modes = tuple(NotificationMode)
    rows = []
    for mode in modes:
        result = run_case_cell(mode, args.case, args.load,
                               n_workers=args.workers,
                               duration=args.duration, seed=args.seed)
        rows.append([mode.value, f"{result.avg_ms:.3f}",
                     f"{result.p99_ms:.3f}",
                     f"{result.throughput_rps / 1e3:.2f}",
                     f"{result.cpu_sd * 100:.2f}%"])
    print(render_table(
        ["mode", "avg ms", "p99 ms", "thr kRPS", "cpu SD"], rows,
        title=f"{args.case} {args.load}: identical traffic, "
              f"{args.workers} workers"))
    return 0


def _cmd_experiment(args) -> int:
    # argparse validated the name against EXPERIMENTS already.
    from .sweep import run_sweep

    overrides = _grid_overrides(args.name, args.overrides)
    if overrides is None:
        return 1
    result = run_sweep(args.name, seed=args.seed, jobs=args.jobs,
                       cache=False, overrides=overrides)
    print(result.render())
    if args.out:
        if not _write_json(args.out, result.to_json()):
            return 1
        print(f"result: {len(result.runs)} cells -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import run_sweep

    overrides = _grid_overrides(args.name, args.overrides)
    if overrides is None:
        return 1
    cache = False if args.no_cache else (args.cache_dir or True)
    try:
        result = run_sweep(args.name, seed=args.seed, jobs=args.jobs,
                           cache=cache, overrides=overrides,
                           force=args.force, check=args.check)
    except AssertionError as exc:
        if not args.check:
            raise
        print(f"check FAILED: {exc}", file=sys.stderr)
        return 1
    print(result.render())
    print(f"sweep: {len(result.runs)} cells "
          f"({result.executed} executed, {result.cached} cached) "
          f"jobs={result.jobs} wall={result.wall_seconds:.2f}s")
    if args.out:
        if not _write_json(args.out, result.to_json()):
            return 1
        print(f"sweep document -> {args.out}")
    if args.require_cached and result.executed:
        print(f"error: --require-cached but {result.executed} cell(s) "
              f"executed (cache miss)", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args) -> int:
    from .faults import FaultInjector, FaultPlan
    from .kernel.nic import Nic
    from .lb.server import LBServer
    from .sim.engine import Environment
    from .sim.rng import RngRegistry
    from .workloads.cases import build_case_workload
    from .workloads.generator import TrafficGenerator

    try:
        plan = FaultPlan.load(args.plan)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load fault plan {args.plan}: {exc}",
              file=sys.stderr)
        return 1
    mode = NotificationMode(args.mode)
    tracer = None
    if args.trace:
        from .obs import Tracer
        tracer = Tracer()
    spec = build_case_workload(args.case, args.load, n_workers=args.workers,
                               duration=args.duration)
    env = Environment()
    registry = RngRegistry(args.seed)
    # Always attach a Nic so nic_loss plans work out of the box.
    server = LBServer(env, n_workers=args.workers, ports=list(spec.ports),
                      mode=mode,
                      hash_seed=registry.stream("hash-seed").randrange(2 ** 32),
                      nic=Nic(n_queues=args.workers), tracer=tracer)
    server.start()
    gen = TrafficGenerator(env, server, registry.stream("traffic"), spec)
    injector = FaultInjector(env, server, plan,
                             registry=registry.fork("faults"),
                             tracer=tracer)
    try:
        injector.arm()
    except ValueError as exc:
        print(f"error: cannot arm {args.plan}: {exc}", file=sys.stderr)
        return 1
    context, monitors, hook = _check_context(args.check)
    if hook is not None:
        hook(env, server, gen)
    gen.start()
    try:
        with context as stats:
            env.run(until=args.duration + 0.5)
    except AssertionError as exc:
        if not args.check:
            raise
        print(f"check FAILED: {exc}", file=sys.stderr)
        return 1
    if args.check:
        _finish_check(monitors, stats)
    summary = server.metrics.summary()

    fault_rows = [[f"{r['t']:.4f}", r["event"], r["kind"],
                   "-" if r.get("worker") is None else r["worker"]]
                  for r in injector.log]
    print(render_table(["t (s)", "event", "fault", "worker"], fault_rows,
                       title=f"fault timeline ({len(plan.faults)} specs, "
                             f"seed {plan.seed})"))
    print(render_table(
        ["metric", "value"],
        [["mode", mode.value],
         ["workload", spec.name],
         ["faults fired", injector.faults_fired],
         ["faults cleared", injector.faults_cleared],
         ["requests completed", summary["completed"]],
         ["failed", summary["failed"]],
         ["refused", server.metrics.connections_refused],
         ["avg latency (ms)", f"{summary['avg_ms']:.3f}"],
         ["p99 latency (ms)", f"{summary['p99_ms']:.3f}"],
         ["throughput (kRPS)", f"{summary['throughput_rps'] / 1e3:.2f}"]],
        title=f"{mode.value} on {spec.name} under {args.plan}"))
    if getattr(args, "out", None):
        doc = dict(summary, mode=mode.value, workload=spec.name,
                   seed=args.seed, faults_fired=injector.faults_fired,
                   faults_cleared=injector.faults_cleared,
                   fault_log=injector.log)
        if not _write_json(args.out, json.dumps(doc, indent=2,
                                                sort_keys=True)):
            return 1
        print(f"summary -> {args.out}")
    if tracer is not None:
        from .obs import write_chrome_trace
        try:
            n = write_chrome_trace(tracer.events, args.trace)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"trace: {n} events -> {args.trace} "
              f"(open at https://ui.perfetto.dev)")
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
    from contextlib import nullcontext

    for flag, value in (("--rate", args.rate), ("--duration", args.duration)):
        if not 0 < value < float("inf"):
            print(f"error: {flag} must be finite and > 0, got {value}",
                  file=sys.stderr)
            return 1
    if args.jobs is not None:
        return _cmd_fleet_sharded(args)

    from .faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
    from .fleet import build_fleet
    from .fleet.sharded import fleet_spec
    from .obs import FlightRecorder, Tracer
    from .sim.engine import Environment
    from .sim.rng import RngRegistry
    from .workloads.generator import TrafficGenerator

    env = Environment()
    registry = RngRegistry(args.seed)
    recorder = FlightRecorder(capacity=256)
    tracer = Tracer(env, recorder=recorder, keep_events=False)
    fleet = build_fleet(
        env, args.instances, args.workers, ports=[443],
        mode=NotificationMode(args.mode), policy=args.policy,
        ingress=args.ingress,
        hash_seed=registry.stream("hash").randrange(2 ** 32), tracer=tracer)
    fleet.start()

    context: Any = nullcontext()
    pcc = None
    monitors: List[Any] = []
    if args.check:
        from .check import live_oracles, watch, watch_fleet
        context = live_oracles()
        pcc = watch_fleet(fleet)
        monitors = [watch(instance) for instance in fleet.instances]

    gen = TrafficGenerator(env, fleet, registry.stream("traffic"),
                           fleet_spec(args.duration, args.rate))
    faults = []
    if args.churn_at is not None and args.churn_at >= 0:
        faults.append(FaultSpec(kind=FaultKind.BACKEND_CHURN,
                                at=args.churn_at, magnitude=args.churn_k))
    if args.crash_at is not None:
        faults.append(FaultSpec(kind=FaultKind.INSTANCE_CRASH,
                                at=args.crash_at, target="busiest",
                                detect_delay=args.detect_delay))
    plan = FaultPlan(faults=tuple(faults), seed=args.seed)
    injector = FaultInjector(env, None, plan, tracer=tracer,
                             fleet=fleet).arm()
    gen.start()
    try:
        with context as stats:
            env.run(until=args.duration)
            if pcc is not None:
                passes = pcc.finalize()
                for monitor in monitors:
                    for name, count in monitor.finalize().items():
                        passes[name] = passes.get(name, 0) + count
    except AssertionError as exc:
        if not args.check:
            raise
        print(f"check FAILED: {exc}", file=sys.stderr)
        return 1
    if args.check:
        print(f"check: {sum(passes.values())} invariant evaluation(s), "
              f"{stats.total if stats is not None else 0} live oracle "
              f"comparison(s), {len(pcc.violations)} PCC violation(s)")

    summary = fleet.summary()
    if plan.faults:
        fault_rows = [[f"{r['t']:.4f}", r["event"], r["kind"],
                       r.get("instance", "-" if "churn" not in r
                             else f"churn k={r['churn']}")]
                      for r in injector.log]
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
        doc = dict(summary, seed=args.seed,
                   faults_fired=injector.faults_fired)
        if pcc is not None:
            doc["pcc_violations"] = len(pcc.violations)
        if not _write_json(args.out, json.dumps(doc, indent=2,
                                                sort_keys=True)):
            return 1
        print(f"summary -> {args.out}")
    return 0


def _cmd_resilience(args) -> int:
    from .faults import SCENARIOS
    from .sweep import run_sweep

    if args.scenarios:
        unknown = [s for s in args.scenarios if s not in SCENARIOS]
        if unknown:
            print(f"error: unknown scenario(s) {', '.join(unknown)}; "
                  f"choose from {', '.join(SCENARIOS)}", file=sys.stderr)
            return 1
    overrides = _grid_overrides("resilience", args.overrides)
    if overrides is None:
        return 1
    overrides["n_workers"] = args.workers
    if args.scenarios:
        overrides["scenarios"] = list(args.scenarios)
    if args.modes:
        overrides["modes"] = list(args.modes)
    # The sweep's merged document IS the canonical matrix payload, so the
    # JSON below is byte-identical to ResilienceMatrix.to_json(indent=2)
    # whatever --jobs is.
    result = run_sweep("resilience", seed=args.seed, jobs=args.jobs,
                       cache=False, overrides=overrides)
    print(result.render())
    if args.out:
        if not _write_json(args.out, json.dumps(result.merged, indent=2,
                                                sort_keys=True)):
            return 1
        print(f"matrix: {len(result.runs)} cells -> {args.out}")
    return 0


def _cmd_perf(args) -> int:
    from .perf import (build_report, calibrate, check_regression, load_report,
                       render_report, run_benchmarks, write_report)

    try:
        results = run_benchmarks(quick=args.quick, only=args.benches,
                                 repeats=args.repeats)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = build_report(results, calibrate(), quick=args.quick)
    print(render_report(report))
    try:
        write_report(report, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"report: {len(report['benches'])} benches -> {args.out}")
    if args.check:
        try:
            committed = load_report(args.check)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load committed report {args.check}: {exc}",
                  file=sys.stderr)
            return 1
        failures = check_regression(report, committed)
        if failures:
            for failure in failures:
                print(f"regression: {failure}", file=sys.stderr)
            return 1
        print(f"regression gate: ok vs {args.check}")
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
    if args.out:
        _write_json(args.out, payload)
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
        "trace": _cmd_trace,
        "compare": _cmd_compare,
        "experiment": _cmd_experiment,
        "sweep": _cmd_sweep,
        "list": _cmd_list,
        "chaos": _cmd_chaos,
        "fleet": _cmd_fleet,
        "resilience": _cmd_resilience,
        "perf": _cmd_perf,
        "check": _cmd_check,
        "fuzz": _cmd_fuzz,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
