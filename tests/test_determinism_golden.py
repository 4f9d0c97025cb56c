"""Golden-hash determinism: seeded runs stay bit-identical.

The four golden hashes are SHA-256s of the canonical JSON of full seeded
experiment outputs; the first three were captured on the tree *before*
the simulation-core hot-path overhaul landed (commit 4bc651e), the fleet
one when ``repro.fleet`` landed.  Every event-ordering or RNG-draw change
meant to move nothing — the direct ``yield delay`` timers, incremental
conditions, the one engine dispatch loop — must leave them untouched; a
mismatch means observable behaviour drifted and is a bug, not a baseline
refresh.  The two engine-step pins at the bottom hold a speed-up to the
same schedule, event for event.

The values live in ``tests/pins.json``.  If a change *intentionally*
moves simulated behaviour (new feature, model fix), list every moved pin
with::

    PYTHONPATH=src python -m pytest -m pin -q

copy the new values into ``tests/pins.json``, and say which moved and why
in the change description.
"""

import pytest

from repro.check.golden import (cell_fingerprint, fig13_fingerprint,
                                fleet_fingerprint, sec7_fingerprint)
from repro.experiments.common import run_case_cell
from repro.fleet.sharded import run_sharded_fleet
from repro.lb.server import NotificationMode


@pytest.mark.pin
def test_case_cell_bit_identical(pin):
    """One Hermes Table-3 cell: metrics hash matches the pre-PR engine."""
    pin("golden/cell", cell_fingerprint())


@pytest.mark.pin
def test_sec7_bit_identical(pin):
    """§7 generality scenarios (both modes) hash-match the pre-PR engine."""
    pin("golden/sec7", sec7_fingerprint())


@pytest.mark.pin
def test_fig13_bit_identical(pin):
    """Fig. 13 full series hash-matches the pre-PR engine."""
    pin("golden/fig13", fig13_fingerprint())


@pytest.mark.pin
def test_fleet_bit_identical(pin):
    """The pinned 4-instance stateless ``fleet_scale`` cell (churn at
    0.6 s, busiest-instance crash at 0.9 s, seed 31; ingress, failover
    and PCC monitors)."""
    pin("golden/fleet", fleet_fingerprint())


def test_fingerprints_are_run_to_run_stable():
    """Same seed, same process, two runs: byte-identical output."""
    assert cell_fingerprint() == cell_fingerprint()


@pytest.mark.pin
def test_hermes_medium_cell_engine_steps(pin):
    """An engine-event count is exact: a speed-up must keep it."""
    result = run_case_cell(NotificationMode.HERMES, "case2", "medium",
                           n_workers=8, duration=2.5, seed=7,
                           keep_server=True)
    pin("steps/hermes_medium_cell", result.server.env.steps)


@pytest.mark.pin
def test_sharded_fleet_engine_steps(pin):
    """Eight serial shards dispatch exactly this many events in total."""
    pin("steps/sharded_fleet",
        run_sharded_fleet(n_instances=8, duration=1.5, jobs=1)["steps"])
