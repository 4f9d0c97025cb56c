"""Table 4 — distribution of the four traffic cases across regions.

The case mix itself is measured input data (reproduced verbatim from the
paper).  The analysis this experiment adds: combining the mix with the
Table 3 verdicts gives each mode's *traffic-weighted* effectiveness per
region — the quantitative form of "epoll exclusive and reuseport perform
poorly in the commonly occurring case 3 and case 4, respectively".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from ..analysis.reporting import render_table
from ..workloads.cases import CASE_MIX
from .registry import Claim, simple_experiment

__all__ = ["CaseMixAnalysis", "run_table4", "render_table4",
           "PAPER_INEFFECTIVE_CASES"]

#: Table 3's per-case verdicts from the paper: the cases where each mode
#: is marked ineffective (✗).
PAPER_INEFFECTIVE_CASES: Dict[str, List[str]] = {
    "exclusive": ["case1", "case2", "case3"],
    "reuseport": ["case2", "case4"],
    "hermes": [],
}


@dataclass
class CaseMixAnalysis:
    #: region -> case -> share (percent).
    mix: Dict[str, Dict[str, float]]
    #: region -> mode -> percent of traffic in cases where the mode is ✗.
    impacted_share: Dict[str, Dict[str, float]]
    #: The average row of Table 4.
    average_mix: Dict[str, float]


def run_table4(ineffective: Dict[str, List[str]] = None) -> CaseMixAnalysis:
    ineffective = ineffective or PAPER_INEFFECTIVE_CASES
    regions = sorted(CASE_MIX)
    cases = sorted({case for mix in CASE_MIX.values() for case in mix})
    average = {case: sum(CASE_MIX[r][case] for r in regions) / len(regions)
               for case in cases}
    impacted: Dict[str, Dict[str, float]] = {}
    for region in regions:
        impacted[region] = {}
        for mode, bad_cases in ineffective.items():
            impacted[region][mode] = sum(
                CASE_MIX[region].get(case, 0.0) for case in bad_cases)
    return CaseMixAnalysis(mix=dict(CASE_MIX), impacted_share=impacted,
                           average_mix=average)


def render_table4(analysis: CaseMixAnalysis) -> str:
    regions = sorted(analysis.mix)
    cases = sorted(analysis.average_mix)
    rows = []
    for case in cases:
        rows.append([case] + [f"{analysis.mix[r][case]:.2f}%"
                              for r in regions]
                    + [f"{analysis.average_mix[case]:.2f}%"])
    mix_table = render_table(
        ["Case"] + regions + ["Avg"], rows,
        title="Table 4: case distribution across regions")
    impact_rows = []
    for mode in ("exclusive", "reuseport", "hermes"):
        impact_rows.append(
            [mode] + [f"{analysis.impacted_share[r][mode]:.1f}%"
                      for r in regions])
    impact_table = render_table(
        ["Mode (traffic in its x cases)"] + regions, impact_rows,
        title="Traffic share impacted per mode")
    return mix_table + "\n\n" + impact_table


def _claims(merged: dict) -> Tuple[Claim, ...]:
    sums = [round(sum(shares.values()), 2)
            for shares in merged["mix"].values()]
    avg = merged["average_mix"]
    worst = {mode: max(shares[mode]
                       for shares in merged["impacted_share"].values())
             for mode in ("exclusive", "reuseport", "hermes")}
    return (
        Claim("region_mix_rows_sum_to_100",
              all(abs(total - 100.0) < 0.1 for total in sums),
              f"row sums {sums}"),
        Claim("case3_then_case4_dominate_the_average_mix",
              avg["case3"] > avg["case4"] > avg["case1"],
              f"case3 {avg['case3']:.2f}% > case4 {avg['case4']:.2f}% > "
              f"case1 {avg['case1']:.2f}%"),
        Claim("hermes_impacts_no_traffic", worst["hermes"] == 0.0,
              f"worst region {worst['hermes']:.1f}%"),
        Claim("exclusive_and_reuseport_each_impact_over_80pct_somewhere",
              worst["exclusive"] > 80.0 and worst["reuseport"] > 80.0,
              f"worst region: exclusive {worst['exclusive']:.1f}%, "
              f"reuseport {worst['reuseport']:.1f}%"),
    )


def _runner(seed: int, params: dict) -> dict:
    analysis = run_table4(ineffective=params.get("ineffective"))
    return dict(asdict(analysis), rendered=render_table4(analysis))


simple_experiment(
    "table4", "Case distribution across regions (analytic)",
    _runner, default_seed=0, claims=_claims,
    tunables={"ineffective": "mode -> cases it is ineffective in "
                             "(default: the paper's Table 3 marks)"})
