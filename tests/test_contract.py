"""The determinism and claims contracts, checked over every registered
experiment.

Each name in ``EXPERIMENT_MODULES`` runs twice at its ``SMOKE`` scale:
serially in-process, and fanned across two worker processes with live
differential oracles armed around every cell.  The two canonical sweep
documents must be byte-identical, so one comparison covers both ways a
cell could leak state: the worker count, and whether oracles are armed.

The same smoke document then feeds the experiment's paper claims: every
claim ``SMOKE_CLAIMS`` names must hold.  An experiment whose ``SMOKE``
is ``{}`` runs its default grid, so all of its claims must hold.  The
full-scale check of every claim is ``tests/test_claims.py``.

The serial document's SHA-256 must also equal the experiment's
``SMOKE_DIGESTS`` entry, so a change meant to move no simulated output is
checked to move none, in every experiment.

A new experiment gets this gate by adding its ``SMOKE`` and
``SMOKE_DIGESTS`` entries; ``test_every_experiment_has_a_smoke_scale``
fails until it does.

``test_devices_are_built_by_build_cell`` keeps device assembly in one
place: only the files ``LBSERVER_CALLS`` names may construct an
``LBServer`` themselves.
"""

import ast
import copy
import hashlib
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
              "hermes_bounds_every_b_by_3.3t",
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

#: Registry name -> SHA-256 of its canonical smoke sweep document
#: (``run_sweep(...).to_json()``).  Pinned so a refactor that should move
#: nothing is seen to move nothing in every experiment; a change that moves
#: simulated output on purpose re-pins the entries it moves and says why.
SMOKE_DIGESTS = {
    "table1":
        "5c262c742be8a684799c0d9dee36fc3ff2b13e8c20247d2a4c3972698f8436ac",
    "table2":
        "dad2c1e9f63b0b6a6bce8b955685d20916204186848adb7110cacfd79fa924fc",
    "table3":
        "f679302ca97bb0e6c9dc977265990df000b253d1d4fd4d65671411ee85edd7f8",
    "table4":
        "1aa3eb96799ade870afda2b373c5843302ac3bc6003ea0c3feb0a1e6d89bb0bd",
    "table5":
        "1b2682b5a035ae16010140332b5197e77e1947e5b7750d27a1bee62f3df655d0",
    "fig3":
        "c6cff750140c0e90dec24f146ce02cdce6db303c5eecbc37027c5b6bbb4bf756",
    "fig45":
        "430c60279a8d7128c608c2fa9d2ca93501b6012a34b2307c71a9644bc18aa550",
    "fig7":
        "44e884ec185bc497c15fa2150007920008e38bfb9ff254dfa624609c78f74440",
    "fig11":
        "91ae7460312e99376b6a7638c225299bb80316f46565bfcfb31e41a3c7d21542",
    "fig12":
        "af0b8e68ddea2f704aa95caddd2699c15df1a350dd824edeec9502188035e83b",
    "fig13":
        "401398dbeb9e79c08ad82b5dd87ca1e42f66ebb5c86bfa267b17bb4419114e76",
    "fig14":
        "aa3fd532b58fdd5f3233cfec845839259d67f457daba4abdd37e6a035a4538bf",
    "fig15":
        "933a588f79629dfa8684535b2c42d0dda6f801cca3d90b516f4e1096454c9b65",
    "figa4":
        "ef1a39b4b022eca9ff6298d7053dc1719a7a05b7a07fe74914ce7a361fe52dd7",
    "figa5":
        "c60a88e0f678163583bd76f911635809bbf83db26781fc0e6a12f4f5a5fed83b",
    "sec7":
        "9817cc1075415b75a1994bd7cd608e0e94002cd9e219c67b7b0e3e09ad68452b",
    "appc":
        "7d2f373cd4079d4ba755ea4c61549e97a85dfd2a6f9165e91e285487fecc0a54",
    "ablations":
        "70bab490a6d7db3ddc40afab700c8d4e5d3110bb64aef8c62ae22596ed744d31",
    "baselines":
        "2526a8937ac9c7ef716d3ae5d6479bd89f4b57366fc27b1b514005ca1b2f677a",
    "pool_capacity":
        "72cf5fe51935b8b32a22f1e981a8fd08230a5bcf12b993d7ddcdc47a6e5987da",
    "isolation":
        "f0e5d8b3ae79514b92ff9617fcb77a60efed2c38a4e06d98d9cf109233310581",
    "scaling":
        "8e9fe9d333e1553250bcc3ad8d02d60e2266af9cd6f45fe526663c2702c20c0a",
    "resilience":
        "ee567614007eeace144e3631ee908555b4b676ef938be6b8bb6d77a4a7c7150a",
    "prequal_ablation":
        "e3f81dcd25e2fa67730c2a28b81ba018a63b7a903ff09d615ecd0e624914a809",
    "fleet_scale":
        "65cd1c60a133e614988e7e286a4b5593873f18459969ad5ea86d1d8da8d1fd0b",
    "splice_crossover":
        "f5377887e24e5a07d92f3c5e063540dbc17f34a40c1fbc60e0d88d60546d6f54",
    "fuzz_regressions":
        "6ac776467bd6ee36e7bd06183ce2ab9a8a16d308ce05cb7e91ae116dc74ecda0",
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
    assert set(SMOKE_DIGESTS) == set(EXPERIMENT_MODULES)
    assert set(SMOKE_CLAIMS) <= set(EXPERIMENT_MODULES)


@pytest.mark.parametrize("name", EXPERIMENT_MODULES)
def test_serial_equals_parallel_with_oracles_armed(name):
    serial = run_sweep(name, jobs=1, cache=False, overrides=SMOKE[name])
    checked = run_sweep(name, jobs=2, cache=False, overrides=SMOKE[name],
                        check=True)
    assert serial.to_json() == checked.to_json(), first_difference(
        json.loads(serial.to_json()), json.loads(checked.to_json()))
    assert hashlib.sha256(serial.to_json().encode()).hexdigest() \
        == SMOKE_DIGESTS[name]

    claims = {claim.name: claim for claim in get(name).claims(serial.merged)}
    listed = SMOKE_CLAIMS.get(name, [])
    if not SMOKE[name]:
        assert sorted(listed) == sorted(claims)
    missing = sorted(set(listed) - set(claims))
    assert not missing, f"claims left out at smoke scale: {missing}"
    failing = [claims[n].line() for n in listed if not claims[n].holds]
    assert not failing, "\n".join(failing)


#: ``src/repro`` file -> (``LBServer(...)`` calls it may make, why).  Every
#: other single-device run is assembled by :func:`repro.cell.build_cell`.
LBSERVER_CALLS = {
    "cell.py": (1, "build_cell, the builder itself"),
    "experiments/appc.py": (2, "multi-device: the sandbox and phased-scaling "
                               "fleets"),
    "experiments/fig11.py": (1, "multi-device: the old and new devices of "
                                "one canary-released fleet"),
    "experiments/figa4.py": (1, "no generator: five hand-placed requests "
                                "on a fixed hash seed"),
    "experiments/isolation.py": (1, "listens on two tenants' ports while "
                                    "each generator's spec names one"),
    "experiments/pool_capacity.py": (1, "no generator: connections fed by "
                                        "hand"),
    "fleet/fleet.py": (1, "fleet_instance: every fleet instance"),
    "fuzz/runner.py": (1, "traffic is a TraceReplayer, not a generator"),
}


def _lbserver_calls(path: Path) -> int:
    tree = ast.parse(path.read_text(), filename=str(path))
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) == "LBServer"
                    or getattr(node.func, "attr", None) == "LBServer"))


def test_devices_are_built_by_build_cell():
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    calls = {}
    for path in sorted(root.rglob("*.py")):
        count = _lbserver_calls(path)
        if count:
            calls[path.relative_to(root).as_posix()] = count
    assert calls == {name: count
                     for name, (count, _) in LBSERVER_CALLS.items()}


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
