"""Figure 9: negative interference of probabilistic branches.

Probabilistic branches pollute predictor state that regular branches
share.  The paper measures the MPKI increase on regular branches when
probabilistic branches are allowed to access/update the 1 KB tournament
predictor, versus filtering them out; the maximum across 7 seeds reaches
5.8% with a couple of percent on average, and is negligible for the
larger TAGE-SC-L.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim import RunSpec, paper_workload_names
from .common import DEFAULT_SCALE, ExperimentResult, Names, Runs, simulate

TITLE = "Figure 9: regular-branch MPKI increase from prob-branch interference"
PAPER_CLAIM = (
    "probabilistic branches inflate regular-branch misses in the 1 KB "
    "tournament predictor by up to 5.8% (max over 7 seeds); negligible "
    "for TAGE-SC-L"
)

DEFAULT_SEEDS = tuple(range(7))

#: Below this many regular-branch mispredictions in the filtered run the
#: relative increase is numerically meaningless (the Monte Carlo kernels
#: have a single well-predicted loop branch, so one extra miss would read
#: as "+100%"); such rows report 0.
MIN_BASE_MISSES = 25


#: Column prefix -> registered predictor.
PREDICTORS = {"tournament": "tournament", "tagescl": "tage-sc-l"}


def _predictors(include_tagescl: bool) -> Dict[str, str]:
    return PREDICTORS if include_tagescl else {"tournament": "tournament"}


def _pair(name: str, scale: float, seed: int,
          include_tagescl: bool) -> Tuple[RunSpec, RunSpec]:
    """The shared run of one (benchmark, seed) and its twin whose
    harnesses filter probabilistic branches out; both interpret the
    same committed path."""
    predictors = tuple(_predictors(include_tagescl).values())
    shared = RunSpec(name, scale=scale, seed=seed, predictors=predictors)
    return shared, replace(shared, harness_options={"filter_probabilistic": True})


def specs(scale: float, seed: Optional[int] = None, names: Names = None,
          seeds: Sequence[int] = DEFAULT_SEEDS,
          include_tagescl: bool = True) -> List[RunSpec]:
    return [
        spec
        for name in names or paper_workload_names()
        for each in seeds
        for spec in _pair(name, scale, each, include_tagescl)
    ]


def reduce(runs: Runs, scale: float, seed: Optional[int] = None,
           names: Names = None, seeds: Sequence[int] = DEFAULT_SEEDS,
           include_tagescl: bool = True) -> ExperimentResult:
    predictors = _predictors(include_tagescl)
    result = ExperimentResult(
        TITLE,
        columns=["benchmark"] + [f"{column}_increase_%" for column in predictors],
        paper_claim=PAPER_CLAIM,
    )
    for name in names or paper_workload_names():
        increases = {column: [] for column in predictors}
        for each in seeds:
            shared, filtered = (
                runs[spec] for spec in _pair(name, scale, each, include_tagescl)
            )
            for column, predictor in predictors.items():
                base_metrics = filtered.predictor(predictor)
                base = base_metrics.regular_mpki
                polluted = shared.predictor(predictor).regular_mpki
                if base_metrics.regular_mispredicts >= MIN_BASE_MISSES:
                    increases[column].append(100.0 * (polluted - base) / base)
                else:
                    increases[column].append(0.0)
        result.add_row(benchmark=name, **{
            f"{column}_increase_%": max(values)
            for column, values in increases.items()
        })

    result.add_note(
        "maximum increase across seeds, as in the paper; negative values "
        "mean the probabilistic branches happened to help (constructive "
        "aliasing)"
    )
    return result


def run(scale: float = DEFAULT_SCALE, seeds: Sequence[int] = DEFAULT_SEEDS,
        names: Names = None, include_tagescl: bool = True) -> ExperimentResult:
    options = dict(names=names, seeds=seeds, include_tagescl=include_tagescl)
    return reduce(simulate(specs(scale, **options)), scale, **options)
