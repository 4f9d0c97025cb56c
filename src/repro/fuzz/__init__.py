"""repro.fuzz — adversarial scenario fuzzing over everything the repo
can compose.

A scenario is one point in (workload family × fault plan × architecture
mode × fleet size).  The :mod:`.generator` draws random-but-seeded
scenarios; the :mod:`.runner` executes each one with ``repro.check``
invariant monitors, live differential oracles, and (for fleet scenarios)
the PCC monitor armed, memoizing results through the sweep
:class:`~repro.sweep.CellCache`; the :mod:`.shrink` pass reduces any
violation to a minimal reproducer and re-verifies it fails
byte-deterministically.  Finds register as named regression scenarios
runnable via the ``fuzz_regressions`` experiment.

Everything is a pure function of the seed: the same
``repro fuzz --budget N --seed S`` invocation produces the same scenario
list and the same report, byte for byte.
"""

from .._lazy import lazy_exports

__all__ = [
    "FuzzReport",
    "Scenario",
    "generate_scenarios",
    "random_plan",
    "register_find",
    "run_fuzz",
    "run_scenario",
    "shrink_scenario",
    "violation_signature",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".generator": ("Scenario", "generate_scenarios", "random_plan"),
    ".runner": ("FuzzReport", "run_fuzz", "run_scenario"),
    ".shrink": ("register_find", "shrink_scenario", "violation_signature"),
})
