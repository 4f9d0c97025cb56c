"""repro.check — runtime invariant monitors, differential oracles, and a
nondeterminism linter for the simulated LB stack.

Four layers of defence for the repo's bit-identical-reproduction claim:

- :mod:`.invariants` — monitors attachable to a live server; violations
  raise with a flight-recorder dump.
- :mod:`.oracles` — obviously-correct references cross-checked against
  every fast path, offline (property tests) and live (``--check``).
- :mod:`.lint` — an AST pass that flags unseeded RNGs, wall-clock reads,
  and unordered iteration at decision points before they ever run.
- :mod:`.golden` — SHA-256 fingerprints of seeded runs' canonical JSON,
  pinned by ``tests/test_determinism_golden.py``.

All of it is opt-in: an unchecked run neither imports this package nor
executes any of its instructions.  Callers import it inside the branch
that arms a check; ``tests/test_fanout.py`` pins this for a serial
sharded fleet.
"""

from .invariants import InvariantMonitor, InvariantViolation, watch
from .lint import Finding, lint_paths, lint_source
from .pcc import PccMonitor, watch_fleet
from .oracles import (
    OracleMismatch,
    OracleStats,
    checked,
    live_oracles,
    ref_cascade,
    ref_find_nth_set_bit,
    ref_jhash_4tuple,
    ref_jhash_words,
    ref_popcount64,
    ref_reciprocal_scale,
)
from .runner import CheckReport, run_check

__all__ = [
    "InvariantMonitor",
    "InvariantViolation",
    "watch",
    "PccMonitor",
    "watch_fleet",
    "Finding",
    "lint_paths",
    "lint_source",
    "OracleMismatch",
    "OracleStats",
    "checked",
    "live_oracles",
    "ref_cascade",
    "ref_find_nth_set_bit",
    "ref_jhash_4tuple",
    "ref_jhash_words",
    "ref_popcount64",
    "ref_reciprocal_scale",
    "CheckReport",
    "run_check",
]
