"""Minimal-reproducer shrinking for fuzzer finds.

Greedy delta-debugging over the scenario structure, in a fixed order so
the result is deterministic: drop the whole fault plan, drop individual
faults, shrink the fleet to a single device, halve the worker count,
shrink the workload parameters in-family, drop the replay-rate
multiplier, then binary-search the trace itself by connection group
(inlining the surviving half as explicit events).  A candidate is
accepted only when it still fails with the *same* violation signature
``(kind, name)``; the final reproducer is re-run twice and marked
``verified`` only when both documents are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..faults.plan import FLEET_KINDS, FaultPlan
from ..sim.rng import RngRegistry
from ..workloads.library import FAMILIES
from .generator import Scenario

__all__ = ["FIND_SCHEMA", "register_find", "shrink_scenario",
           "violation_signature"]

FIND_SCHEMA = "repro/fuzz-find/v1"

#: Evaluation budget for one shrink (each evaluation is a full run).
MAX_EVALS = 160


def violation_signature(doc: Dict[str, Any]) -> Optional[Tuple[str, str]]:
    """The (kind, name) identity of a failing run; None when it passed."""
    violation = doc.get("violation")
    if not violation:
        return None
    return (violation["kind"], violation["name"])


def _with(scenario: Scenario, **changes) -> Scenario:
    data = scenario.to_dict()
    data.update(changes)
    return Scenario.from_dict(data)


def _inline_trace(scenario: Scenario) -> List[dict]:
    """Materialize the scenario's trace as explicit event dicts."""
    from .runner import build_scenario_trace

    trace = build_scenario_trace(scenario,
                                 RngRegistry(scenario.seed))
    return [event.to_dict() for event in trace.sorted_events()]


def _candidates(scenario: Scenario) -> List[Tuple[str, Scenario]]:
    """Strictly smaller variants, in the fixed shrink order."""
    out: List[Tuple[str, Scenario]] = []
    plan = FaultPlan.from_dict(scenario.plan)

    if len(plan) > 0:
        empty = FaultPlan(faults=(), seed=plan.seed)
        out.append(("drop-all-faults",
                    _with(scenario, plan=empty.to_dict())))
    if len(plan) > 1:
        for index in range(len(plan)):
            kept = tuple(spec for j, spec in enumerate(plan.faults)
                         if j != index)
            out.append((f"drop-fault-{index}",
                        _with(scenario,
                              plan=FaultPlan(faults=kept,
                                             seed=plan.seed).to_dict())))

    if scenario.n_instances is not None:
        if not any(spec.kind in FLEET_KINDS for spec in plan):
            out.append(("drop-fleet", _with(scenario, n_instances=None)))
        if scenario.n_instances > 2:
            out.append(("halve-fleet",
                        _with(scenario,
                              n_instances=max(2, scenario.n_instances // 2))))

    if scenario.n_workers > 1:
        smaller = max(1, scenario.n_workers // 2)
        plan_ok = all(
            not isinstance(spec.target, int) or spec.target < smaller
            for spec in FaultPlan.from_dict(scenario.plan)
            if spec.kind not in FLEET_KINDS)
        if plan_ok:
            out.append(("halve-workers",
                        _with(scenario, n_workers=smaller)))

    if scenario.trace_events is None:
        family = FAMILIES[scenario.family]
        for index, params in enumerate(family.shrink(scenario.workload)):
            out.append((f"shrink-workload-{index}",
                        _with(scenario, workload=params)))

    if scenario.rate != 1.0:
        out.append(("drop-rate", _with(scenario, rate=1.0)))

    events = scenario.trace_events
    if events is None:
        events = _inline_trace(scenario)
    conn_keys = sorted({event["conn_key"] for event in events})
    if len(conn_keys) > 1:
        half = set(conn_keys[:len(conn_keys) // 2])
        first = [e for e in events if e["conn_key"] in half]
        second = [e for e in events if e["conn_key"] not in half]
        out.append(("trace-first-half",
                    _with(scenario, trace_events=first)))
        out.append(("trace-second-half",
                    _with(scenario, trace_events=second)))
    return out


def shrink_scenario(scenario: Scenario,
                    baseline: Optional[Dict[str, Any]] = None,
                    run: Optional[Callable[[Scenario],
                                           Dict[str, Any]]] = None,
                    max_evals: int = MAX_EVALS) -> Dict[str, Any]:
    """Reduce a failing scenario to a minimal reproducer.

    Returns the find document: the shrunk scenario, its violation, the
    evaluation count, and whether the double-run verification confirmed
    byte-deterministic re-failure.
    """
    if run is None:
        from .runner import run_scenario
        run = run_scenario

    evaluations = 0

    def evaluate(candidate: Scenario) -> Dict[str, Any]:
        nonlocal evaluations
        evaluations += 1
        return run(candidate)

    if baseline is None:
        baseline = evaluate(scenario)
    signature = violation_signature(baseline)
    if signature is None:
        raise ValueError(
            f"scenario {scenario.name} does not fail — nothing to shrink")

    current = scenario
    progress = True
    while progress and evaluations < max_evals:
        progress = False
        for label, candidate in _candidates(current):
            if evaluations >= max_evals:
                break
            doc = evaluate(candidate)
            if violation_signature(doc) == signature:
                current = candidate
                progress = True
                break

    first = evaluate(current)
    second = evaluate(current)
    verified = (first == second
                and violation_signature(first) == signature)

    shrunk = current.to_dict()
    digest = hashlib.sha256(
        json.dumps({"scenario": shrunk, "signature": list(signature)},
                   sort_keys=True).encode()).hexdigest()[:10]
    return {
        "schema": FIND_SCHEMA,
        "name": f"fuzz-{digest}",
        "scenario": shrunk,
        "violation": first.get("violation") or baseline["violation"],
        "signature": list(signature),
        "evaluations": evaluations,
        "verified": verified,
    }


def register_find(find: Dict[str, Any], directory: str) -> str:
    """Persist a find as a named regression scenario.

    The ``fuzz_regressions`` experiment enumerates this directory, so
    every registered find becomes a replayable cell in the experiment
    registry (``repro experiment fuzz_regressions --set dir=...``).
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{find['name']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(find, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
