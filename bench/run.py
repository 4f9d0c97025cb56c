"""End-to-end simulator benchmark.

Run the workloads and print every metric by name with its unit::

    python bench/run.py [--workload NAME] [--seed 7]
                        [--repeats 5 | --seconds S] [--trace 0|1] [--out DIR]

Compare two results files against the bounds in ``BENCHMARK.json``::

    python bench/run.py compare A.json B.json

Per workload the benchmark runs, each in a fresh ``python`` process and
strictly one at a time:

1. one *checked* pass, untimed, with the live invariant monitors armed;
2. *timed* passes with nothing installed (``--repeats`` of them, or as
   many as fit in ``--seconds``, at least :data:`MIN_TIMED`), which give
   the end-to-end metrics as median (fastest pass for :data:`BEST_PASS`),
   quartiles and n;
3. with ``--trace 1``, one *traced* pass that gives the per-layer metrics.

Every pass must produce the same simulated-result digest; otherwise, or if
a monitor trips or a pass fails, the benchmark names the workload on
standard error and exits non-zero without printing a result.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402

#: Every end-to-end metric and its unit, in report order.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "run_s": "s",
    "sim_requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_avg_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_goodput_rps": "1/s",
    "completed_frac": "ratio",
}
#: Metrics whose value is the best timed pass rather than the median.
#: Contention on a shared host only ever slows a pass, and it comes and goes
#: within seconds, so the fastest pass is the steadiest estimate of the
#: simulator's own speed.
BEST_PASS = {"run_s": min, "sim_requests_per_s": max}

MIN_TIMED = 3
#: Upper bound on one pass, so a hung simulation cannot hang the benchmark.
PASS_TIMEOUT_S = 150


class GateError(RuntimeError):
    """The correctness gate failed for a workload."""


# -- running passes -----------------------------------------------------------
def run_child(name: str, seed: int, kind: str) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    # Fixed string hashing keeps dict and set layouts, and so timings, the
    # same from pass to pass.
    env["PYTHONHASHSEED"] = "0"
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), name, str(seed),
             kind, repr(spawned_at)],
            cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateError(f"{name}: {kind} pass ran over {PASS_TIMEOUT_S} s "
                        "and was stopped") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise GateError(f"{name}: {kind} pass exited with code "
                        f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: Sequence[float]) -> Dict[str, Any]:
    """Median, first and third quartile, n and the raw runs."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "runs": list(values)}


def summarize_timed(passes: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics from the timed passes."""
    series: Dict[str, List[float]] = {name: [] for name in END_TO_END_UNITS}
    for doc in passes:
        series["setup_s"].append(doc["setup_s"])
        series["run_s"].append(doc["run_s"])
        series["sim_requests_per_s"].append(
            doc["sim"]["completed"] / doc["run_s"])
        series["peak_rss_mb"].append(doc["peak_rss_mb"])
        for name in ("sim_avg_ms", "sim_p99_ms", "sim_goodput_rps",
                     "completed_frac"):
            series[name].append(doc["sim"][name])
    metrics = {}
    for name, values in series.items():
        stats = quartiles(values)
        if name in BEST_PASS:
            stats["value"] = BEST_PASS[name](values)
        metrics[name] = {"unit": END_TO_END_UNITS[name], **stats}
    return metrics


def run_workload(name: str, seed: int, *, repeats: Optional[int],
                 seconds: Optional[float], trace: bool,
                 runner: Optional[Callable[[str, int, str], Dict[str, Any]]]
                 = None) -> Dict[str, Any]:
    """Checked, timed and (optionally) traced passes of one workload.

    ``runner(name, seed, kind)`` runs one pass (default :func:`run_child`);
    tests pass an in-process one.
    """
    runner = runner or run_child
    checked = runner(name, seed, "checked")
    timed: List[Dict[str, Any]] = []
    began = time.monotonic()
    while True:
        timed.append(runner(name, seed, "timed"))
        if repeats is not None:
            if len(timed) >= repeats:
                break
        elif (len(timed) >= MIN_TIMED
              and time.monotonic() - began >= seconds):
            break
    traced = runner(name, seed, "traced") if trace else None
    passes = [checked] + timed + ([traced] if traced else [])
    digests = {doc["digest"] for doc in passes}
    if len(digests) != 1:
        raise GateError(
            f"{name}: simulated results differ between passes: "
            + ", ".join(f"{doc['kind']}={doc['digest'][:12]}"
                        for doc in passes))
    metrics = summarize_timed(timed)
    result: Dict[str, Any] = {
        "digest": checked["digest"],
        "attempted": sum(doc["sim"]["attempted"] for doc in timed),
        "failed": sum(doc["sim"]["failed"] for doc in timed),
        "metrics": metrics,
        "steps": {doc["kind"]: doc["steps"] for doc in passes},
    }
    if traced is not None:
        layers = dict(traced["layers"])
        run_best = metrics["run_s"]["value"]
        layers["sim.events_per_s"] = timed[0]["steps"] / run_best
        layers["trace.overhead"] = traced["run_s"] / run_best
        result["layers"] = {
            key: {"value": layers[key], "unit": unit}
            for key, unit in PER_LAYER_UNITS.items()}
        result["profile"] = traced["profile"]
        result["spans"] = traced["spans"]
        result["missing_probes"] = traced["missing_probes"]
    return result


# -- provenance ---------------------------------------------------------------
def git_head() -> Optional[str]:
    """The commit being measured, when the tree is a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def host_info() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "sched_getaffinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
    }


# -- output -------------------------------------------------------------------
def print_workload(name: str, seed: int, result: Dict[str, Any]) -> None:
    n = result["metrics"]["run_s"]["n"]
    print(f"== {name}  seed {seed}  {n} timed passes  "
          f"digest {result['digest'][:16]}")
    for metric, stats in result["metrics"].items():
        print(f"  {metric:<34} {stats['value']:>14.6g} {stats['unit']:<6}"
              f" q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}")
    for metric, stats in result.get("layers", {}).items():
        value = stats["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<34} {shown:>14} {stats['unit']}")


def contract_line(results: Dict[str, Dict[str, Any]],
                  trace: bool) -> Dict[str, Any]:
    """The final JSON line: per-layer metrics when traced, else end to end.
    Metric names carry a ``<workload>/`` prefix when several ran."""
    metrics: Dict[str, Any] = {}
    for name, result in results.items():
        block = result["layers"] if trace else result["metrics"]
        prefix = f"{name}/" if len(results) > 1 else ""
        for metric, stats in block.items():
            metrics[prefix + metric] = {"value": stats["value"],
                                        "unit": stats["unit"]}
    return {
        "correct": True,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main_run(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="End-to-end simulator benchmark "
                    "(see also: bench/run.py compare A.json B.json)")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed passes per workload (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run timed passes until this many seconds "
                             f"have passed (at least {MIN_TIMED} passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also run the traced pass (default)")
    parser.add_argument("--out", default=str(BENCH_DIR / "results"),
                        help="directory for the results JSON")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.seconds is not None:
        parser.error("give --repeats or --seconds, not both")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    repeats = args.repeats
    if repeats is None and args.seconds is None:
        repeats = 5
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 1

    began = time.monotonic()
    results: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, repeats=repeats, seconds=args.seconds,
                trace=bool(args.trace))
            print_workload(name, args.seed, results[name])
    except GateError as exc:
        print(f"bench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    document = {
        "seed": args.seed,
        "git_head": git_head(),
        "host": host_info(),
        "argv": list(argv),
        "wall_s": time.monotonic() - began,
        "workloads": results,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    label = args.workload or "all"
    path = out_dir / f"{label}-seed{args.seed}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"results: {path}  ({document['wall_s']:.1f} s)")
    print(json.dumps(contract_line(results, bool(args.trace))))
    return 0


# -- compare ------------------------------------------------------------------
def load_benchmark() -> Dict[str, Dict[str, Any]]:
    """End-to-end metric specs (unit, direction, bound) by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    """better / worse / within bound / unresolved for B against A."""
    base = abs(a["value"]) or 1.0
    spread = max((a["q3"] - a["q1"]) / base,
                 (b["q3"] - b["q1"]) / (abs(b["value"]) or 1.0))
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / base  # > 0: B is worse
    if spread > bound:
        a_runs, b_runs = a["runs"], b["runs"]
        if better == "lower":
            b_wins = max(b_runs) < min(a_runs)
            b_loses = min(b_runs) > max(a_runs)
        else:
            b_wins = min(b_runs) > max(a_runs)
            b_loses = max(b_runs) < min(a_runs)
        if b_wins:
            return "better"
        if b_loses:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def compare(a_doc: Dict[str, Any], b_doc: Dict[str, Any],
            specs: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Verdict per (workload, metric) pair plus digest changes."""
    rows = []
    digests = {}
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None:
            continue
        digests[name] = a["digest"] == b["digest"]
        for metric, spec in specs.items():
            if metric not in a["metrics"] or metric not in b["metrics"]:
                continue
            ma, mb = a["metrics"][metric], b["metrics"][metric]
            rows.append({
                "workload": name, "metric": metric, "unit": spec["unit"],
                "a": ma["value"], "b": mb["value"], "bound": spec["bound"],
                "verdict": verdict(ma, mb, spec["better"], spec["bound"]),
            })
    return {"rows": rows, "digest_same": digests}


def main_compare(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py compare")
    parser.add_argument("a", help="baseline results JSON")
    parser.add_argument("b", help="candidate results JSON")
    args = parser.parse_args(argv)
    a_doc = json.loads(Path(args.a).read_text())
    b_doc = json.loads(Path(args.b).read_text())
    report = compare(a_doc, b_doc, load_benchmark())
    for row in report["rows"]:
        change = (row["b"] - row["a"]) / (abs(row["a"]) or 1.0)
        print(f"{row['workload']:<16} {row['metric']:<20} "
              f"{row['a']:>12.6g} -> {row['b']:>12.6g} {row['unit']:<6} "
              f"{change:+8.2%}  bound {row['bound']:.0%}  {row['verdict']}")
    for name, same in report["digest_same"].items():
        print(f"{name:<16} simulated digest "
              f"{'unchanged' if same else 'CHANGED'}")
    worse = any(row["verdict"] == "worse" for row in report["rows"])
    return 1 if worse else 0


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "compare":
        return main_compare(argv[1:])
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
