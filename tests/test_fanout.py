"""The one fan-out: ordering, reclamation, and what a serial run imports.

``repro.fanout.fan_out`` runs the fleet's shards, the sweep's cells and
the fuzzer's scenarios.  Its contract: results come back in enumeration
order for any ``jobs``, ``on_done`` fires once per item, the serial path
reclaims each finished run before the next starts and leaves the GC's
frozen set as it found it, and a serial run never loads the process
pool.  The import and reclamation checks run in a fresh interpreter, so
nothing an earlier test imported or leaked can satisfy them.
"""

import gc
import json
import os
import subprocess
import sys
import textwrap
import weakref

import pytest
from hypothesis import given, strategies as st

import repro
from repro.fanout import fan_out

_SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


class _Node:
    pass


_nodes = []


def _cyclic(_payload):
    """Count the earlier runs' nodes still alive, then leave a cycle."""
    alive = sum(1 for ref in _nodes if ref() is not None)
    node = _Node()
    node.self = node
    _nodes.append(weakref.ref(node))
    return alive


def _fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter; return its last line as JSON."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@given(payloads=st.lists(st.integers(-1000, 1000), max_size=6),
       jobs=st.sampled_from([1, 2, 3]))
def test_results_in_order_and_on_done_once_per_item(payloads, jobs):
    seen = []
    results = fan_out(_square, payloads, jobs,
                      on_done=lambda index, result: seen.append(
                          (index, result)))
    assert results == list(map(_square, payloads))
    assert sorted(seen) == list(enumerate(results))


class TestSerial:
    def test_each_finished_run_is_reclaimed_before_the_next(self):
        _nodes.clear()
        was_enabled = gc.isenabled()
        gc.disable()  # only fan_out's own collections may reclaim
        try:
            assert fan_out(_cyclic, range(4)) == [0, 0, 0, 0]
        finally:
            if was_enabled:
                gc.enable()

    def test_freeze_count_restored_on_error(self):
        before = gc.get_freeze_count()
        with pytest.raises(RuntimeError, match="boom 0"):
            fan_out(_boom, [0, 1])
        assert gc.get_freeze_count() == before

    def test_callers_frozen_set_is_never_thawed(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert fan_out(_square, [1, 2, 3]) == [1, 4, 9]
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_error_propagates_from_pool(self):
        with pytest.raises(RuntimeError, match="boom"):
            fan_out(_boom, [0, 1], jobs=2)


def test_serial_fleet_never_loads_pool_or_check():
    found = _fresh("""
        import json, sys
        import repro.fleet.sharded, repro.sweep.orchestrator
        import repro.fuzz.runner
        from repro.fleet.sharded import run_sharded_fleet
        doc = run_sharded_fleet(n_instances=2, duration=0.6,
                                conn_rate=60.0, jobs=1)
        assert doc["completed"] > 0
        print(json.dumps(sorted(
            name for name in ("multiprocessing",
                              "concurrent.futures.process", "repro.check")
            if name in sys.modules)))
    """)
    assert found == []


def test_serial_fleet_leaves_no_environment_alive():
    found = _fresh("""
        import gc, json
        from repro.fleet.sharded import run_sharded_fleet
        from repro.sim.engine import Environment
        gc.disable()  # only fan_out's own collections may reclaim
        before = gc.get_freeze_count()
        run_sharded_fleet(n_instances=4, duration=0.6, conn_rate=60.0,
                          jobs=1)
        print(json.dumps({
            "alive": sum(isinstance(o, Environment)
                         for o in gc.get_objects()),
            "freeze_restored": gc.get_freeze_count() == before}))
    """)
    assert found == {"alive": 0, "freeze_restored": True}
