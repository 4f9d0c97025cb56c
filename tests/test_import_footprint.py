"""What a run imports: package re-exports load only on first use.

Every ``repro`` package ``__init__`` resolves its re-exports lazily
(``repro._lazy``), so importing one submodule does not load its siblings.
The footprint check runs in a fresh interpreter, so nothing an earlier
test imported can satisfy it; the resolution checks keep every lazy
re-export from rotting.
"""

import importlib
import pkgutil

import pytest

import repro
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
