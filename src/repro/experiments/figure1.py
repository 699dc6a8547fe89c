"""Figure 1: probabilistic vs regular branches — frequency and misses.

The paper's motivating figure: probabilistic branches are a small share of
the dynamically executed branches, yet account for a disproportionately
large share of the mispredictions, and the imbalance grows with the better
TAGE-SC-L predictor.
"""

from __future__ import annotations

from typing import List

from ..sim import RunSpec, paper_workload_names
from .common import DEFAULT_SCALE, DEFAULT_SEED, ExperimentResult, Names, Runs, simulate

TITLE = "Figure 1: probabilistic vs regular branch breakdown"
PAPER_CLAIM = (
    "probabilistic branches are a minority of dynamic branches but a "
    "disproportionate share of mispredictions; the share grows from the "
    "tournament to the TAGE-SC-L predictor (e.g. DOP: ~2% of branches, "
    "19%/23% of misses)"
)

PREDICTORS = ("tournament", "tage-sc-l")


def _spec(name: str, scale: float, seed: int) -> RunSpec:
    return RunSpec(name, scale=scale, seed=seed, predictors=PREDICTORS)


def specs(scale: float, seed: int = DEFAULT_SEED, names: Names = None) -> List[RunSpec]:
    return [_spec(name, scale, seed) for name in names or paper_workload_names()]


def reduce(runs: Runs, scale: float, seed: int = DEFAULT_SEED,
           names: Names = None) -> ExperimentResult:
    result = ExperimentResult(
        TITLE,
        columns=[
            "benchmark",
            "prob_branch_share_%",
            "tournament_miss_share_%",
            "tagescl_miss_share_%",
        ],
        paper_claim=PAPER_CLAIM,
    )
    for name in names or paper_workload_names():
        run = runs[_spec(name, scale, seed)]
        stats = run.predictor("tournament")
        tagescl = run.predictor("tage-sc-l")
        total_branches = stats.regular_branches + stats.prob_branches
        branch_share = 100.0 * stats.prob_branches / total_branches

        def miss_share(metrics) -> float:
            misses = metrics.mispredicts
            if misses == 0:
                return 0.0
            return 100.0 * metrics.prob_mispredicts / misses

        result.add_row(
            benchmark=name,
            **{
                "prob_branch_share_%": branch_share,
                "tournament_miss_share_%": miss_share(stats),
                "tagescl_miss_share_%": miss_share(tagescl),
            },
        )
    result.add_note(
        "shares are computed over conditional branches on the committed path"
    )
    return result


def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
        names: Names = None) -> ExperimentResult:
    return reduce(simulate(specs(scale, seed, names)), scale, seed, names)
