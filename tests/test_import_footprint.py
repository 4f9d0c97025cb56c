"""What a run imports and calls: package re-exports load only on first
use, and hooks that are off cost no call.

Every ``repro`` package ``__init__`` resolves its re-exports lazily
(``repro._lazy``), so importing one submodule does not load its siblings.
The footprint check runs in a fresh interpreter, so nothing an earlier
test imported can satisfy it; the resolution checks keep every lazy
re-export from rotting.

The tracer, the monitors and oracles, and the fault injector live in
``repro.obs``, ``repro.check`` and ``repro.faults``.  A run that arms
none of them must make no Python call into those packages: cProfile
counts the calls exactly, whatever the host's speed.
"""

import cProfile
import importlib
import os
import pkgutil

import pytest

import repro
from repro.experiments.common import run_case_cell, run_spec
from repro.fleet import run_fleet
from repro.fleet.sharded import run_sharded_fleet
from repro.lb import NotificationMode, mode_names
from repro.workloads.cases import build_case_workload
from tests.test_fanout import _fresh

#: Modules an unchecked single-device run never executes.
_UNUSED_BY_A_RUN = (
    "repro.check.lint",
    "repro.check.oracles",
    "repro.check.pcc",
    "repro.check.runner",
    "repro.obs.export",
    "repro.workloads.library",
    "repro.workloads.trace",
)

_PACKAGES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg) + ["repro"]


def test_unchecked_run_loads_no_unused_module():
    found = _fresh(f"""
        import json, sys
        # Imported, not armed, as a caller that may arm a check does.
        import repro.check.invariants
        from repro.experiments.common import run_spec
        from repro.lb.server import NotificationMode
        from repro.workloads.cases import build_case_workload

        spec = build_case_workload("case1", "medium", n_workers=4,
                                   duration=0.2, ports=(443, 444))
        result = run_spec(NotificationMode.EXCLUSIVE, spec, n_workers=4,
                          seed=7)
        assert result.completed > 0
        print(json.dumps([name for name in {_UNUSED_BY_A_RUN!r}
                          if name in sys.modules]))
    """)
    assert found == []


@pytest.mark.parametrize("name", _PACKAGES)
def test_every_reexport_resolves(name):
    package = importlib.import_module(name)
    for attr in package.__all__:
        assert getattr(package, attr) is not None, attr
        assert attr in dir(package)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    lb = importlib.import_module("repro.lb")
    with pytest.raises(AttributeError, match="no_such_name"):
        lb.no_such_name
    with pytest.raises(ImportError):
        exec("from repro.lb import no_such_name", {})


#: Packages whose code an unarmed run must never call.
_HOOK_PACKAGES = ("repro.obs", "repro.check", "repro.faults")


def _hook_calls(func, *args, **kwargs):
    """``func(*args, **kwargs)``, and the calls it made into
    ``_HOOK_PACKAGES``, per function."""
    roots = tuple(
        os.path.dirname(importlib.import_module(name).__file__) + os.sep
        for name in _HOOK_PACKAGES)
    profiler = cProfile.Profile()
    result = profiler.runcall(func, *args, **kwargs)
    calls = {}
    for entry in profiler.getstats():
        code = entry.code
        if not isinstance(code, str) and code.co_filename.startswith(roots):
            key = f"{code.co_filename}:{code.co_name}"
            calls[key] = calls.get(key, 0) + entry.callcount
    return result, calls


@pytest.mark.parametrize("mode", mode_names())
def test_unarmed_cell_makes_no_hook_call(mode):
    spec = build_case_workload("case1", "medium", n_workers=2,
                               duration=0.05, ports=(443,))
    result, calls = _hook_calls(run_spec, NotificationMode(mode), spec,
                                n_workers=2, seed=7)
    assert result.completed > 0
    assert sum(calls.values()) == 0, calls


def test_unarmed_case_cell_makes_no_hook_call():
    result, calls = _hook_calls(run_case_cell, NotificationMode.HERMES,
                                "case2", "light", n_workers=2,
                                duration=0.1, seed=7, check=False)
    assert result.completed > 0 and result.passes is None
    assert sum(calls.values()) == 0, calls


def test_unarmed_sharded_fleet_makes_no_hook_call():
    result, calls = _hook_calls(run_sharded_fleet, n_instances=4,
                                duration=0.3, jobs=1)
    assert result["completed"] > 0
    assert sum(calls.values()) == 0, calls


def test_unarmed_serial_fleet_makes_no_hook_call():
    run, calls = _hook_calls(run_fleet, churn_at=None, duration=0.3)
    assert run.doc["completed"] > 0
    assert sum(calls.values()) == 0, calls
