"""Table II: benchmark characteristics.

Static probabilistic/total branch counts and dynamic instruction counts
of *our* implementations, side by side with the paper's numbers (whose
binaries, built from full C/C++ applications with libc, are necessarily
larger — the probabilistic branch counts are the part that must match).
"""

from __future__ import annotations

from typing import List

from ..sim import RunSpec, get_workload, paper_workload_names
from .common import DEFAULT_SCALE, DEFAULT_SEED, ExperimentResult, Names, Runs, simulate

TITLE = "Table II: benchmarks and their characteristics"
PAPER_CLAIM = (
    "8 benchmarks, 1-3 probabilistic branches each, categories 1 and 2, "
    "1.3-17 billion simulated instructions"
)


def specs(scale: float, seed: int = DEFAULT_SEED, names: Names = None) -> List[RunSpec]:
    return [
        RunSpec(name, scale=scale, seed=seed)
        for name in names or paper_workload_names()
    ]


def reduce(runs: Runs, scale: float, seed: int = DEFAULT_SEED,
           names: Names = None) -> ExperimentResult:
    result = ExperimentResult(
        TITLE,
        columns=[
            "benchmark",
            "prob/total (ours)",
            "prob/total (paper)",
            "category",
            "instructions (ours)",
            "instructions (paper)",
        ],
        paper_claim=PAPER_CLAIM,
    )
    for spec in specs(scale, seed, names):
        workload = get_workload(spec.workload)
        summary = workload.static_summary()
        result.add_row(
            **{
                "benchmark": workload.name,
                "prob/total (ours)": (
                    f"{summary['probabilistic_branches']}/"
                    f"{summary['total_branches']}"
                ),
                "prob/total (paper)": (
                    f"{workload.paper.prob_branches}/"
                    f"{workload.paper.total_branches}"
                ),
                "category": workload.paper.category,
                "instructions (ours)": runs[spec].instructions,
                "instructions (paper)": workload.paper.simulated_instructions,
            }
        )
    result.add_note(
        f"dynamic counts measured at scale={scale}; the paper simulated "
        "full application binaries"
    )
    return result


def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
        names: Names = None) -> ExperimentResult:
    return reduce(simulate(specs(scale, seed, names)), scale, seed, names)
