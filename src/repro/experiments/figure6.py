"""Figure 6: MPKI reduction through PBS.

Paper numbers: 29.9% average MPKI reduction (up to 99%) for the 1 KB
tournament predictor and 44.8% average for the 8 KB TAGE-SC-L — the better
the baseline predictor handles regular branches, the larger the relative
share of probabilistic misses and the bigger PBS's relative win.
"""

from __future__ import annotations

from typing import List

from ..sim import MODES, RunSpec, paper_workload_names
from .common import DEFAULT_SCALE, DEFAULT_SEED, ExperimentResult, Names, Runs, simulate

TITLE = "Figure 6: MPKI reduction through PBS"
PAPER_CLAIM = (
    "MPKI drops 29.9% avg (up to 99%) with the tournament predictor and "
    "44.8% avg with TAGE-SC-L"
)

PREDICTORS = ("tournament", "tage-sc-l")


def _spec(name: str, scale: float, seed: int, mode: str) -> RunSpec:
    return RunSpec(name, scale=scale, seed=seed, mode=mode, predictors=PREDICTORS)


def specs(scale: float, seed: int = DEFAULT_SEED, names: Names = None) -> List[RunSpec]:
    return [
        _spec(name, scale, seed, mode)
        for name in names or paper_workload_names()
        for mode in MODES
    ]


def reduce(runs: Runs, scale: float, seed: int = DEFAULT_SEED,
           names: Names = None) -> ExperimentResult:
    result = ExperimentResult(
        TITLE,
        columns=[
            "benchmark",
            "tournament_mpki",
            "tournament_pbs_mpki",
            "tournament_reduction_%",
            "tagescl_mpki",
            "tagescl_pbs_mpki",
            "tagescl_reduction_%",
        ],
        paper_claim=PAPER_CLAIM,
    )
    reductions = {"tournament": [], "tage-sc-l": []}
    for name in names or paper_workload_names():
        base_run = runs[_spec(name, scale, seed, "base")]
        pbs_run = runs[_spec(name, scale, seed, "pbs")]
        row = {"benchmark": name}
        for pname, column in (
            ("tournament", "tournament"),
            ("tage-sc-l", "tagescl"),
        ):
            base = base_run.predictor(pname).mpki
            pbs = pbs_run.predictor(pname).mpki
            reduction = 100.0 * (base - pbs) / base if base > 0 else 0.0
            reductions[pname].append(reduction)
            row[f"{column}_mpki"] = base
            row[f"{column}_pbs_mpki"] = pbs
            row[f"{column}_reduction_%"] = reduction
        result.add_row(**row)

    result.add_row(
        benchmark="average",
        **{
            "tournament_reduction_%": sum(reductions["tournament"])
            / len(reductions["tournament"]),
            "tagescl_reduction_%": sum(reductions["tage-sc-l"])
            / len(reductions["tage-sc-l"]),
        },
    )
    return result


def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
        names: Names = None) -> ExperimentResult:
    return reduce(simulate(specs(scale, seed, names)), scale, seed, names)
