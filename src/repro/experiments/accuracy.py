"""Section VII-D: correctness of the output under PBS.

The paper quantifies the algorithmic inaccuracy PBS introduces via its
bootstrap replay: zero relative error for DOP, Greeks, Swaptions,
MC-integ and PI; statistically indistinguishable success rates for
Genetic (overlapping 95% CIs); 3.9% average RMS error for Photon's
output image; zero reward/regret error for Bandit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from ..sim import RunSpec, get_workload, paper_workload_names
from .common import DEFAULT_SCALE, ExperimentResult, Names, Runs, simulate

TITLE = "Section VII-D: output accuracy under PBS"
PAPER_CLAIM = (
    "error is zero or negligible: 0 for DOP/Greeks/Swaptions/MC-integ/PI "
    "and Bandit, overlapping success-rate CIs for Genetic, 3.9% RMS for "
    "Photon"
)

DEFAULT_SEEDS = tuple(range(8))


def _seed_specs(name: str, scale: float, seed: int) -> Tuple[RunSpec, ...]:
    """The baseline run of one seed, its PBS candidate and — except for
    genetic, which is judged by success rate alone — the noise-floor run
    with an unrelated seed."""
    if name == "genetic":
        # Genetic needs enough generations for success to be possible
        # at all; its metric is a rate, judged by CI overlap.
        scale = max(scale, 1.0)
    baseline = RunSpec(name, scale=scale, seed=seed)
    pair = (baseline, replace(baseline, mode="pbs"))
    if name == "genetic":
        return pair
    return pair + (replace(baseline, seed=seed + 7919),)


def specs(scale: float, seed: Optional[int] = None, names: Names = None,
          seeds: Sequence[int] = DEFAULT_SEEDS) -> List[RunSpec]:
    return [
        spec
        for name in names or paper_workload_names()
        for each in seeds
        for spec in _seed_specs(name, scale, each)
    ]


def reduce(runs: Runs, scale: float, seed: Optional[int] = None,
           names: Names = None, seeds: Sequence[int] = DEFAULT_SEEDS) -> ExperimentResult:
    result = ExperimentResult(
        TITLE,
        columns=["benchmark", "metric", "mean_error", "max_error", "verdict"],
        paper_claim=PAPER_CLAIM,
    )
    for name in names or paper_workload_names():
        outputs = [
            [runs[spec].outputs for spec in _seed_specs(name, scale, each)]
            for each in seeds
        ]
        if name == "genetic":
            _genetic_row(result, outputs)
            continue
        workload = get_workload(name)
        errors = []
        noise_floor = []
        for baseline, candidate, other in outputs:
            errors.append(workload.accuracy_error(baseline, candidate))
            # The inherent Monte Carlo variation at this scale: the same
            # benchmark run with an unrelated seed.  PBS reorders the
            # random stream, so its deviation is acceptable when it is
            # comparable to this seed-to-seed noise (the paper's
            # "falls within acceptable bounds").
            noise_floor.append(workload.accuracy_error(baseline, other))
        mean_error = sum(errors) / len(errors)
        mean_noise = sum(noise_floor) / len(noise_floor)
        acceptable = max(0.05, 1.5 * mean_noise)
        result.add_row(
            benchmark=name,
            metric="relative error" if name != "photon" else "histogram RMS",
            mean_error=mean_error,
            max_error=max(errors),
            verdict=(
                "ok" if mean_error <= acceptable
                else f"DEVIATES (noise floor {mean_noise:.3f})"
            ),
        )
    return result


def _genetic_row(result, pairs) -> None:
    """Genetic is judged like the paper: success-rate CIs must overlap."""
    from ..stats import proportion_interval

    base_successes = sum(int(base["success"]) for base, _ in pairs)
    pbs_successes = sum(int(pbs["success"]) for _, pbs in pairs)
    base_interval = proportion_interval(base_successes, len(pairs))
    pbs_interval = proportion_interval(pbs_successes, len(pairs))
    overlap = base_interval.overlaps(pbs_interval)
    result.add_row(
        benchmark="genetic",
        metric="success rate",
        mean_error=abs(pbs_interval.mean - base_interval.mean),
        max_error=abs(pbs_interval.mean - base_interval.mean),
        verdict="ok (CIs overlap)" if overlap else "DEVIATES",
    )
    result.add_note(
        f"genetic success rate: original {base_interval}, PBS {pbs_interval}"
    )


def run(scale: float = DEFAULT_SCALE, seeds: Sequence[int] = DEFAULT_SEEDS,
        names: Names = None) -> ExperimentResult:
    options = dict(names=names, seeds=seeds)
    return reduce(simulate(specs(scale, **options)), scale, **options)
