"""Finished flows are freed by reference counting, not by the cyclic GC.

Per-connection objects (processes, conditions, connections and their
fds) must hold no back-reference that closes a cycle, so a flow's state
is reclaimed the moment it finishes.  Each scenario runs one smoke cell
or fleet with the cyclic GC disabled and, while the whole world is still
referenced, asserts that ``gc.collect()`` finds nothing unreachable: any
object a finished flow left in a cycle would be counted there.

The seed is drawn by Hypothesis so that rare paths (refusals, resets,
499 timeouts, interrupted timed waits) get explored.  One seed per
scenario runs in the default profile; the ``chaos`` profile (see
``tests/conftest.py``) gives each scenario a twenty-fifth of its
``max_examples``.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.cell import build_cell
from repro.check.invariants import watch
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.fleet import build_fleet, fleet_faults, fleet_spec
from repro.lb.server import NotificationMode
from repro.obs.trace import Tracer
from repro.workloads.cases import build_case_workload

N_WORKERS = 8
DURATION = 0.3
SETTLE = 0.2
CASES = ("case1", "case2", "case3")

#: Worker faults the hermes cell runs under: each fires at 0.1 s and the
#: timed ones clear at 0.2 s, inside the 0.3 s arrival window.
FAULTS = {
    "worker_hang": FaultSpec(kind=FaultKind.WORKER_HANG, at=0.1,
                             duration=0.1, target="busiest"),
    "worker_crash": FaultSpec(kind=FaultKind.WORKER_CRASH, at=0.1,
                              target="busiest", detect_delay=0.02),
    "slow_worker": FaultSpec(kind=FaultKind.SLOW_WORKER, at=0.1,
                             duration=0.1, target="busiest", magnitude=4.0),
    "wst_freeze": FaultSpec(kind=FaultKind.WST_FREEZE, at=0.1, duration=0.1,
                            target="busiest"),
    "wst_torn_burst": FaultSpec(kind=FaultKind.WST_TORN_BURST, at=0.1,
                                duration=0.1, magnitude=0.8),
}

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
EXAMPLES = settings(max_examples=max(1, settings().max_examples // 25))


def assert_acyclic(run):
    """Run ``run()`` with the cyclic GC off; while its result is still
    alive, nothing it allocated may be unreachable."""
    gc.collect()
    gc.disable()
    try:
        world = run()
        assert gc.collect() == 0
        del world
    finally:
        gc.enable()


def smoke_cell(mode, case, seed, **options):
    spec = build_case_workload(case, "medium", n_workers=N_WORKERS,
                               duration=DURATION)
    return build_cell(spec, NotificationMode(mode), seed,
                      n_workers=N_WORKERS, **options)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("mode", [mode.value for mode in NotificationMode])
@EXAMPLES
@given(seed=SEEDS)
def test_every_mode_and_case(mode, case, seed):
    assert_acyclic(lambda: smoke_cell(mode, case, seed)
                   .run(until=DURATION + SETTLE))


@pytest.mark.parametrize("fault", sorted(FAULTS))
@EXAMPLES
@given(seed=SEEDS)
def test_hermes_under_worker_faults(fault, seed):
    plan = FaultPlan(faults=(FAULTS[fault],), seed=seed)
    assert_acyclic(lambda: smoke_cell("hermes", "case2", seed, faults=plan)
                   .run(until=DURATION + SETTLE))


@EXAMPLES
@given(seed=SEEDS)
def test_hermes_under_watch(seed):
    def run():
        cell = smoke_cell("hermes", "case2", seed)
        monitor = watch(cell.server)
        return cell.run(until=DURATION + SETTLE), monitor
    assert_acyclic(run)


@EXAMPLES
@given(seed=SEEDS)
def test_hermes_under_a_tracer(seed):
    assert_acyclic(lambda: smoke_cell("hermes", "case2", seed,
                                      tracer=Tracer())
                   .run(until=DURATION + SETTLE))


@EXAMPLES
@given(seed=SEEDS)
def test_fleet_with_churn_and_crash(seed):
    faults = fleet_faults(seed, churn_at=0.6, churn_k=2, crash_at=0.8)
    assert_acyclic(lambda: build_fleet(
        fleet_spec(1.2, 150.0), "hermes", seed, n_instances=4,
        n_workers=2, policy="stateless", ingress="ecmp", faults=faults)
        .run(until=1.7))
