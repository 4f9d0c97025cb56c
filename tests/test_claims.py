"""Every paper claim holds at its experiment's registered default scale.

Each experiment with claims runs its default grid, and every claim its
``ExperimentSpec.claims`` returns must hold.  The full sweep takes
minutes, so this module runs only in the nightly chaos job
(``HYPOTHESIS_PROFILE=chaos``); tier-1 checks the claims that hold at
smoke scale (``SMOKE_CLAIMS`` in ``tests/test_contract.py``).
"""

import os

import pytest

from repro.experiments.registry import EXPERIMENT_MODULES, get, no_claims
from repro.sweep import run_sweep

pytestmark = pytest.mark.skipif(
    os.environ.get("HYPOTHESIS_PROFILE") != "chaos",
    reason="full-scale claims run in the nightly chaos job")

WITH_CLAIMS = [name for name in EXPERIMENT_MODULES
               if get(name).claims is not no_claims]


@pytest.mark.parametrize("name", WITH_CLAIMS)
def test_every_claim_holds_at_default_scale(name):
    result = run_sweep(name, jobs=2, cache=False)
    claims = get(name).claims(result.merged)
    assert claims, f"{name} judged no claim on its default grid"
    failing = [claim.line() for claim in claims if not claim.holds]
    assert not failing, "\n".join(failing)
