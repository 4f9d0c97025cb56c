"""The determinism, pin and claims contracts, checked over every
registered experiment.

Each name in ``EXPERIMENT_MODULES`` runs twice at its ``SMOKE`` scale:
serially in-process, and fanned across two worker processes with live
differential oracles armed around every cell.  Three tests read the two
sweeps, which module-scoped fixtures run once per experiment, and each
fails on its own:

- determinism: the two canonical sweep documents are byte-identical, so
  one comparison covers both ways a cell could leak state: the worker
  count, and whether oracles are armed;
- the pin: the serial document's SHA-256 equals the experiment's
  ``smoke/<name>`` entry in ``tests/pins.json``, so a change meant to move
  no simulated output is checked to move none, in every experiment;
- the claims: every claim ``SMOKE_CLAIMS`` names holds on the serial
  document.  An experiment whose ``SMOKE`` is ``{}`` runs its default
  grid, so all of its claims must hold.  The full-scale check of every
  claim is ``tests/test_claims.py``.

A new experiment gets this gate by adding its ``SMOKE`` entry and its
``smoke/<name>`` pin; ``test_every_experiment_has_a_smoke_scale`` and the
pin test fail until it does.

``test_devices_are_built_by_build_cell`` keeps device assembly in one
place: only the files ``LBSERVER_CALLS`` names may construct an
``LBServer`` themselves.  ``test_fleets_are_built_by_build_fleet`` does
the same for ``Fleet`` and ``FLEET_CALLS``, and
``test_connections_are_opened_by_the_client_driver`` for ``Connection``
and ``CONNECTION_CALLS``.  ``test_traffic_targets_are_known`` keeps the
classes traffic can enter, the ones with both ``connect`` and
``deliver``, to ``TRAFFIC_TARGETS``: a second fleet class under another
name fails it.
"""

import ast
import copy
import hashlib
import importlib
import inspect
import json
import os
from pathlib import Path

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
    "baselines": {"n_workers": 2, "duration_scale": 0.1},
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

#: Registry name -> the claims that hold at its ``SMOKE`` scale.  The
#: rest need the full grid or full scale (``tests/test_claims.py``).
SMOKE_CLAIMS = {
    "table1": ["region3_websocket_tail_over_1000x"],
    "table2": ["region_average_max_above_avg_above_min"],
    "table4": ["region_mix_rows_sum_to_100",
               "case3_then_case4_dominate_the_average_mix",
               "hermes_impacts_no_traffic",
               "exclusive_and_reuseport_each_impact_over_80pct_somewhere"],
    "table5": ["total_overhead_below_3pct",
               "dispatcher_is_the_lightest_component",
               "userspace_side_outweighs_the_kernel_side"],
    "fig3": ["exclusive_concentrates_long_lived_conns",
             "exclusive_normal_tail_sub_ms",
             "exclusive_surge_tail_over_30ms"],
    "fig45": ["busiest_worker_harvests_more_events_per_wait",
              "events_per_wait_cdfs_well_formed",
              "idle_workers_block_the_full_timeout_more",
              "every_worker_records_processing_times"],
    "fig7": ["rss_busiest_core_over_2x_idlest",
             "rsspp_leaves_cpu_imbalance_within_20pct"],
    "fig12": ["unit_cost_normalized_to_1",
              "unit_cost_falls_through_the_rollout",
              "peak_reduction_near_paper_18.9pct"],
    "fig13": ["hermes_cpu_sd_within_1.1x_reuseport",
              "exclusive_conn_sd_over_3x_reuseport"],
    "fig15": ["pass_ratio_rises_with_theta"],
    "figa4": ["exclusive_completes_every_request",
              "reuseport_completes_every_request",
              "hermes_completes_every_request",
              "reuseport_hashes_a_b_behind_a",
              "hermes_bounds_every_b_by_3.2t",
              "hermes_uses_all_three_workers"],
    "figa5": ["rule_counts_long_tailed", "rules_cdf_well_formed"],
    "sec7": ["synchronized_rr_overloads_head_servers",
             "randomized_offsets_even_out_rr",
             "shared_pool_restores_upstream_reuse",
             "exclusive_crash_kills_most_connections"],
    "appc": ["locality_falls_as_groups_grow",
             "group_size_1_has_perfect_locality",
             "sandbox_restores_the_innocent_tenant",
             "phased_scaling_borrows_then_provisions"],
    "ablations": ["end_of_loop_scheduling_never_loses",
                  "single_worker_over_2x_candidate_set_latency",
                  "pull_channel_over_3x_push_cpu"],
    "baselines": ["hermes_avg_within_1.25x_best_mode",
                  "epoll_rr_balances_accepts",
                  "dispatcher_worker_never_processes"],
    "isolation": ["modes_complete_the_same_small_tenant_traffic"],
    "fleet_scale": ["2x_stateless_survives_the_crash"],
    "splice_crossover": ["splice_wins_p99_large_long",
                         "splice_loses_p99_small_short",
                         "splice_p99_crossover"],
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
    assert set(SMOKE_CLAIMS) <= set(EXPERIMENT_MODULES)


@pytest.fixture(scope="module", params=EXPERIMENT_MODULES)
def smoke_name(request):
    return request.param


@pytest.fixture(scope="module")
def serial(smoke_name):
    return run_sweep(smoke_name, jobs=1, overrides=SMOKE[smoke_name])


@pytest.fixture(scope="module")
def checked(smoke_name):
    return run_sweep(smoke_name, jobs=2, overrides=SMOKE[smoke_name],
                     check=True)


def test_serial_equals_parallel_with_oracles_armed(serial, checked):
    assert serial.to_json() == checked.to_json(), first_difference(
        json.loads(serial.to_json()), json.loads(checked.to_json()))


@pytest.mark.pin
def test_smoke_digest_is_pinned(smoke_name, serial, pin):
    pin(f"smoke/{smoke_name}",
        hashlib.sha256(serial.to_json().encode()).hexdigest())


def test_smoke_claims_hold(smoke_name, serial):
    claims = {claim.name: claim
              for claim in get(smoke_name).claims(serial.merged)}
    listed = SMOKE_CLAIMS.get(smoke_name, [])
    if not SMOKE[smoke_name]:
        assert sorted(listed) == sorted(claims)
    missing = sorted(set(listed) - set(claims))
    assert not missing, f"claims left out at smoke scale: {missing}"
    failing = [claims[n].line() for n in listed if not claims[n].holds]
    assert not failing, "\n".join(failing)


#: ``src/repro`` file -> (``LBServer(...)`` calls it may make, why).  Every
#: other single-device run is assembled by :func:`repro.cell.build_cell`.
LBSERVER_CALLS = {
    "cell.py": (1, "build_cell, the builder itself"),
    "experiments/appc.py": (1, "multi-device: the sandbox cell's shared "
                               "device and the sandbox started at t=4 s"),
    "experiments/fig11.py": (1, "multi-device: the old and new devices of "
                                "one canary-released fleet"),
    "experiments/figa4.py": (1, "no generator: five hand-placed requests "
                                "on a fixed hash seed"),
    "fleet/fleet.py": (1, "fleet_instance: every fleet instance"),
}

#: ``src/repro`` file -> (``Fleet(...)`` calls it may make, why).  Every
#: other fleet is assembled by :func:`repro.fleet.build_fleet`.
FLEET_CALLS = {
    "fleet/fleet.py": (1, "build_fleet, the builder itself"),
    "experiments/fig11.py": (1, "the canary fleet, which moves onto "
                                "build_fleet with the long-lived "
                                "population's re-pin"),
}


#: ``src/repro`` file -> (``Connection(...)`` calls it may make, why).
#: Every other connection is opened by the client driver,
#: :class:`repro.workloads.generator.TrafficGenerator`.
CONNECTION_CALLS = {
    "workloads/generator.py": (2, "the client driver: a connection and "
                                  "its reconnect after a reset"),
    "workloads/trace.py": (1, "TraceReplayer: a recorded trace's opens"),
    "lb/probes.py": (1, "health probes: one loopback connection per "
                        "worker"),
    "experiments/appc.py": (1, "the sandbox cell's two tenants, whose "
                               "device changes mid-run"),
    "experiments/fig3.py": (1, "the long-lived population the surge "
                               "lands on"),
    "experiments/fig11.py": (1, "the canary fleet's long-lived "
                                "population"),
    "experiments/figa4.py": (1, "five hand-placed requests"),
    "experiments/pool_capacity.py": (1, "connections that stay open until "
                                        "the pools fill"),
}

#: Class -> ``src/repro`` file, for every class that defines both
#: ``connect`` and ``deliver``: the things traffic can enter.
TRAFFIC_TARGETS = {
    "NetStack": "kernel/tcp.py",
    "LBServer": "lb/server.py",
    "Fleet": "fleet/fleet.py",
    "_Target": "workloads/generator.py",
}


def _modules():
    """``(src/repro-relative path, parsed module)`` for every file."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    for path in sorted(root.rglob("*.py")):
        yield (path.relative_to(root).as_posix(),
               ast.parse(path.read_text(), filename=str(path)))


def _calls_per_file(name: str) -> dict:
    calls = {}
    for module, tree in _modules():
        count = sum(1 for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and (getattr(node.func, "id", None) == name
                         or getattr(node.func, "attr", None) == name))
        if count:
            calls[module] = count
    return calls


def test_devices_are_built_by_build_cell():
    assert _calls_per_file("LBServer") == {
        name: count for name, (count, _) in LBSERVER_CALLS.items()}


def test_fleets_are_built_by_build_fleet():
    assert _calls_per_file("Fleet") == {
        name: count for name, (count, _) in FLEET_CALLS.items()}


def test_connections_are_opened_by_the_client_driver():
    assert _calls_per_file("Connection") == {
        name: count for name, (count, _) in CONNECTION_CALLS.items()}


def test_traffic_targets_are_known():
    targets = {}
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and {"connect", "deliver"} <= {
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef)}:
                targets[node.name] = module
    assert targets == TRAFFIC_TARGETS


#: ``src/repro`` file -> why it may assign to an attribute of a class it
#: imports.  Everything else perturbs a run through its own instances,
#: as the ablations' ``env_hook``s do.  A class's own module may still set
#: its own class attributes (``kernel/socket.py``'s id counters).
CLASS_PATCHERS = {
    "check/oracles.py": "live_oracles, the differential-check seam",
}


def _imported_names(tree: ast.AST, package: str) -> dict:
    """Local name -> object for every import in a module, at any depth."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package)
            module = importlib.import_module(base)
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                if obj is None:  # a submodule not yet imported
                    obj = importlib.import_module(f"{base}.{alias.name}")
                names[alias.asname or alias.name] = obj
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = importlib.import_module(alias.name)
                if alias.asname:
                    names[alias.asname] = module
                else:
                    top = alias.name.partition(".")[0]
                    names[top] = importlib.import_module(top)
    return names


def _assigned_attributes(tree: ast.AST):
    """Every ``X.attr`` a module assigns, deletes or ``setattr``s."""
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets += node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
        elif (isinstance(node, ast.Call) and node.args
              and getattr(node.func, "id", None) in ("setattr", "delattr")):
            targets.append(ast.Attribute(value=node.args[0], attr="?",
                                         lineno=node.lineno))
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        elif isinstance(target, ast.Attribute):
            yield target


def _resolve(expr: ast.AST, names: dict):
    if isinstance(expr, ast.Name):
        return names.get(expr.id)
    if isinstance(expr, ast.Attribute):
        return getattr(_resolve(expr.value, names), expr.attr, None)
    return None


def test_no_module_patches_an_imported_class():
    src = Path(__file__).resolve().parents[1] / "src"
    patchers = {}
    for path in sorted((src / "repro").rglob("*.py")):
        package = ".".join(path.relative_to(src).parent.parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        names = _imported_names(tree, package)
        for target in _assigned_attributes(tree):
            owner = _resolve(target.value, names)
            if inspect.isclass(owner):
                patchers.setdefault(
                    path.relative_to(src / "repro").as_posix(), []).append(
                    f"{target.lineno}: {owner.__name__}.{target.attr}")
    assert set(patchers) == set(CLASS_PATCHERS), patchers


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
