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

All of it is opt-in: an unchecked run executes none of its instructions.
The package's re-exports resolve on first use, so a caller that imports
:mod:`.invariants` to have ``watch`` at hand loads that one module and
this file, never the linter, the oracles, the PCC monitor or the
``repro check`` runner (``tests/test_import_footprint.py`` pins this for
an unchecked device run).  The library's own callers import it inside
the branch that arms a check, so a serial sharded fleet does not import
it at all (``tests/test_fanout.py``).
"""

from .._lazy import lazy_exports

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
    "check_tracer",
    "run_check",
    "run_checked",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".invariants": ("InvariantMonitor", "InvariantViolation", "watch"),
    ".lint": ("Finding", "lint_paths", "lint_source"),
    ".pcc": ("PccMonitor", "watch_fleet"),
    ".oracles": ("OracleMismatch", "OracleStats", "checked", "live_oracles",
                 "ref_cascade", "ref_find_nth_set_bit", "ref_jhash_4tuple",
                 "ref_jhash_words", "ref_popcount64", "ref_reciprocal_scale"),
    ".runner": ("CheckReport", "check_tracer", "run_check", "run_checked"),
})
