"""The determinism contract, checked over every registered experiment.

Each name in ``EXPERIMENT_MODULES`` runs twice at its ``SMOKE`` scale:
serially in-process, and fanned across two worker processes with live
differential oracles armed around every cell.  The two canonical sweep
documents must be byte-identical, so one comparison covers both ways a
cell could leak state: the worker count, and whether oracles are armed.

A new experiment gets this gate by adding its ``SMOKE`` entry;
``test_every_experiment_has_a_smoke_scale`` fails until it does.
"""

import copy
import json
import os

import pytest

from repro.experiments.registry import EXPERIMENT_MODULES, get
from repro.sweep import run_sweep

#: Registry name -> overrides small enough for tier-1 yet real enough to
#: cross process boundaries.  ``{}`` means the default grid is already
#: instant (the analytic experiments).
SMOKE = {
    "table1": {"n_samples": 2000},
    "table2": {"n_devices": 2, "n_workers": 2, "duration": 0.3},
    "table3": {"cases": ["case2"], "loads": ["light"],
               "duration_scale": 0.1, "n_workers": 2,
               "ports": list(range(20001, 20006)), "settle": 0.5},
    "table4": {},
    "table5": {"loads": ["light"], "n_workers": 2, "duration": 0.3},
    "fig3": {"n_workers": 2, "n_connections": 40},
    "fig45": {"n_workers": 2, "duration": 0.5},
    "fig7": {"n_workers": 2, "duration": 0.3},
    "fig11": {"n_devices": 2, "n_workers": 2, "days": 3, "population": 100},
    "fig12": {},
    "fig13": {"n_workers": 2, "duration": 0.5},
    "fig14": {"cases": ["case2"], "load_fractions": [1.0], "n_workers": 2,
              "duration": 0.3},
    "fig15": {"theta_ratios": [0.0, 1.0], "n_seeds": 1, "n_workers": 2,
              "duration": 0.3},
    "figa4": {},
    "figa5": {"n_tenants": 100},
    "sec7": {"n_workers": 2, "n_connections": 40},
    "appc": {"group_sizes": [1, 2], "n_workers": 4, "n_ports": 4,
             "duration": 0.3, "wide_workers": 8, "wide_duration": 0.3},
    "ablations": {"n_workers": 2, "duration_scale": 0.05},
    "pool_capacity": {"n_workers": 2, "pool_size": 10},
    "isolation": {"n_workers": 2, "duration": 0.3},
    "scaling": {"worker_counts": [2], "duration": 0.3},
    "resilience": {"scenarios": ["worker_crash", "worker_hang"],
                   "modes": ["exclusive", "hermes", "prequal", "splice"],
                   "n_workers": 2},
    "prequal_ablation": {"cells": ["policy/hcl", "policy/latency"],
                         "duration": 1.0, "base_rate": 400.0,
                         "spike_times": [0.5]},
    "fleet_scale": {"instances": [2], "duration": 1.0, "sharded_sizes": [4]},
    "splice_crossover": {"cells": ["small/short/hermes", "small/short/splice",
                                   "large/long/hermes", "large/long/splice"],
                         "duration": 0.5, "n_workers": 2},
    # os.devnull is never a directory, so no developer's registered finds
    # leak in: the experiment runs its one "(no finds)" cell.
    "fuzz_regressions": {"dir": os.devnull},
}

_MISSING = "<missing>"


def first_difference(a, b, path="$"):
    """The first JSON path where ``a`` and ``b`` differ, rendered like
    ``$.cells[2].doc.p99_ms: 1.23 != 1.24``; None when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            found = first_difference(a.get(key, _MISSING),
                                     b.get(key, _MISSING), f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for index, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{index}]")
            if found is not None:
                return found
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        return None
    if type(a) is not type(b) or a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def test_every_experiment_has_a_smoke_scale():
    assert set(SMOKE) == set(EXPERIMENT_MODULES)


@pytest.mark.parametrize("name", EXPERIMENT_MODULES)
def test_serial_equals_parallel_with_oracles_armed(name):
    serial = run_sweep(name, jobs=1, cache=False, overrides=SMOKE[name])
    checked = run_sweep(name, jobs=2, cache=False, overrides=SMOKE[name],
                        check=True)
    assert serial.to_json() == checked.to_json(), first_difference(
        json.loads(serial.to_json()), json.loads(checked.to_json()))


class _Recording(dict):
    """An overrides dict that remembers every key looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


@pytest.mark.parametrize("name", EXPERIMENT_MODULES)
def test_declared_tunables_are_the_keys_cells_read(name):
    spec = get(name)
    overrides = _Recording(SMOKE[name])
    cells = spec.cells(spec.default_seed, overrides)
    # A one-cell experiment may hand its overrides to the runner unread.
    assert overrides.read == set(spec.tunables) \
        or (not overrides.read and len(cells) == 1)


class TestFirstDifference:
    DOC = {"schema": "repro.sweep/v1",
           "cells": [{"key": "a", "doc": {"p99_ms": 1.0}},
                     {"key": "b", "doc": {"p99_ms": 1.23, "completed": 9}}]}

    def test_names_the_nested_leaf(self):
        other = copy.deepcopy(self.DOC)
        other["cells"][1]["doc"]["p99_ms"] = 1.24
        assert first_difference(self.DOC, other) \
            == "$.cells[1].doc.p99_ms: 1.23 != 1.24"

    def test_equal_documents_have_none(self):
        assert first_difference(self.DOC, copy.deepcopy(self.DOC)) is None

    def test_reports_missing_keys_lengths_and_types(self):
        other = copy.deepcopy(self.DOC)
        del other["cells"][0]["doc"]["p99_ms"]
        assert first_difference(self.DOC, other) \
            == "$.cells[0].doc.p99_ms: 1.0 != '<missing>'"
        assert first_difference(self.DOC, dict(self.DOC, cells=[])) \
            == "$.cells: length 2 != 0"
        assert first_difference({"n": 1}, {"n": 1.0}) == "$.n: 1 != 1.0"
