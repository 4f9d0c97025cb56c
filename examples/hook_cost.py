#!/usr/bin/env python3
"""What each cell hook costs when it is on: an ablation over one cell.

The cell is the benchmark's ``hermes_case1`` device: 16 Hermes workers on
4 ports, Table 3 case 1 at medium load for 0.4 simulated seconds, seed 7.
The components are the three hooks ``build_cell`` carries: a tracer, the
invariant monitors (``watch``) and an empty fault plan.  Each pair runs
the baseline and one component in fresh interpreters, alternating which
runs first, and times ``cell.run`` in CPU seconds.  Every run must give
the baseline's result digest; the tracer and the empty plan must also
give its engine steps, and ``watch`` adds exactly its ticks.

Run:  python examples/hook_cost.py [--pairs 10]
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time

HOOKS = ("tracer", "watch", "faults")


def run_one(hook: str) -> dict:
    """Build, hook and run the cell once; report its cost and outcome."""
    from repro import NotificationMode, Tracer, build_cell
    from repro.check import watch
    from repro.faults import FaultPlan
    from repro.workloads import build_case_workload

    spec = build_case_workload("case1", "medium", n_workers=16,
                               duration=0.4, ports=(443, 444, 445, 446))
    options = {"tracer": {"tracer": Tracer()},
               "faults": {"faults": FaultPlan()}}.get(hook, {})
    cell = build_cell(spec, NotificationMode.HERMES, 7, n_workers=16,
                      hash_stream="hash-seed",
                      traffic_stream=f"traffic:{spec.name}", **options)
    monitor = watch(cell.server) if hook == "watch" else None
    start = time.process_time()
    cell.run(until=spec.duration + 0.5)
    cpu_s = time.process_time() - start
    summary = json.dumps(cell.server.metrics.summary(), sort_keys=True)
    return {"cpu_s": cpu_s, "steps": cell.env.steps,
            "ticks": monitor.ticks if monitor else 0,
            "digest": hashlib.sha256(summary.encode()).hexdigest()}


def spawn(hook: str) -> dict:
    out = subprocess.run([sys.executable, __file__, "--one", hook],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--one", choices=("baseline",) + HOOKS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(run_one(args.one)))
        return

    print(f"{'component':<10} {'pairs':>5} {'base med s':>10} "
          f"{'base IQR':>8} {'hook med s':>10} {'hook IQR':>8} "
          f"{'overhead':>8} {'slower':>6}  steps")
    for hook in HOOKS:
        base, hooked = [], []
        for index in range(args.pairs):
            order = ("baseline", hook) if index % 2 == 0 else (hook,
                                                               "baseline")
            runs = {name: spawn(name) for name in order}
            assert runs[hook]["digest"] == runs["baseline"]["digest"]
            assert runs[hook]["steps"] == (runs["baseline"]["steps"]
                                           + runs[hook]["ticks"])
            base.append(runs["baseline"]["cpu_s"])
            hooked.append(runs[hook]["cpu_s"])
        base_med, base_iqr = quartiles(base)
        hook_med, hook_iqr = quartiles(hooked)
        slower = sum(h > b for b, h in zip(base, hooked))
        steps = runs["baseline"]["steps"], runs[hook]["steps"]
        print(f"{hook:<10} {args.pairs:>5} {base_med:>10.3f} "
              f"{base_iqr:>8.3f} {hook_med:>10.3f} {hook_iqr:>8.3f} "
              f"{(hook_med / base_med - 1) * 100:>+7.1f}% {slower:>6}  "
              f"{steps[0]} -> {steps[1]}")


if __name__ == "__main__":
    main()
