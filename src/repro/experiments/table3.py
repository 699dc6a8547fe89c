"""Table III: randomness of the value stream under PBS.

PBS permutes (and during bootstrap slightly duplicates) the stream of
probabilistic values the algorithm consumes.  The paper runs DieHarder
over the original versus PBS-ordered streams for seven seeds and shows
the PASS/WEAK/FAIL confidence intervals overlap, i.e. PBS does not
measurably damage randomness.  We run our 19-test battery the same way
for the six benchmarks with uniform-derived probabilistic values (DOP and
Greeks are Gaussian-controlled, as in the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sim import MODES, RunSpec
from .common import DEFAULT_SCALE, ExperimentResult, Names, Runs, simulate

TITLE = "Table III: randomness battery, original vs PBS value stream"
PAPER_CLAIM = (
    "95% confidence intervals of PASS/WEAK/FAIL counts overlap between "
    "the original and PBS-ordered streams for every benchmark"
)

#: The paper's Table III rows (uniform-controlled benchmarks only).
BENCHMARKS = ("swaptions", "genetic", "photon", "mc-integ", "pi", "bandit")
DEFAULT_SEEDS = tuple(range(7))


def _stream(name: str, scale: float, seeds: Sequence[int], mode: str) -> List[RunSpec]:
    """One value stream per seed, recorded in consumption order."""
    return [
        RunSpec(name, scale=scale, seed=seed, mode=mode, record_consumed=True)
        for seed in seeds
    ]


def _stream_counts(runs: Runs, stream: Sequence[RunSpec]) -> Dict[str, List[int]]:
    from ..stats import FAIL, PASS, WEAK, run_battery, summarize

    counts: Dict[str, List[int]] = {PASS: [], WEAK: [], FAIL: []}
    for spec in stream:
        summary = summarize(run_battery(runs[spec].consumed_values))
        for key in counts:
            counts[key].append(summary[key])
    return counts


def specs(scale: float, seed: Optional[int] = None, names: Names = None,
          seeds: Sequence[int] = DEFAULT_SEEDS) -> List[RunSpec]:
    return [
        spec
        for name in names or BENCHMARKS
        for mode in MODES
        for spec in _stream(name, scale, seeds, mode)
    ]


def reduce(runs: Runs, scale: float, seed: Optional[int] = None,
           names: Names = None, seeds: Sequence[int] = DEFAULT_SEEDS) -> ExperimentResult:
    # The battery loads numpy and scipy: import it only when run.
    from ..stats import FAIL, NUM_TESTS, PASS, WEAK, count_interval

    result = ExperimentResult(
        TITLE,
        columns=[
            "benchmark",
            "orig PASS", "orig WEAK", "orig FAIL",
            "pbs PASS", "pbs WEAK", "pbs FAIL",
            "CIs overlap",
        ],
        paper_claim=PAPER_CLAIM,
    )
    for name in names or BENCHMARKS:
        original = _stream_counts(runs, _stream(name, scale, seeds, "base"))
        with_pbs = _stream_counts(runs, _stream(name, scale, seeds, "pbs"))
        row = {"benchmark": name}
        all_overlap = True
        for key, label in ((PASS, "PASS"), (WEAK, "WEAK"), (FAIL, "FAIL")):
            orig_interval = count_interval(original[key], NUM_TESTS)
            pbs_interval = count_interval(with_pbs[key], NUM_TESTS)
            row[f"orig {label}"] = (
                f"{orig_interval.high:.1f}-{orig_interval.low:.1f}"
            )
            row[f"pbs {label}"] = (
                f"{pbs_interval.high:.1f}-{pbs_interval.low:.1f}"
            )
            if not orig_interval.overlaps(pbs_interval):
                all_overlap = False
        row["CIs overlap"] = "yes" if all_overlap else "NO"
        result.add_row(**row)
    result.add_note(
        f"{NUM_TESTS}-test battery (the paper used DieHarder's 114); "
        f"{len(seeds)} seeds; intervals rendered high-low as in the paper"
    )
    return result


def run(scale: float = DEFAULT_SCALE, seeds: Sequence[int] = DEFAULT_SEEDS,
        names: Names = None) -> ExperimentResult:
    options = dict(names=names, seeds=seeds)
    return reduce(simulate(specs(scale, **options)), scale, **options)
