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

from ..sim import Session
from .common import DEFAULT_SCALE, ExperimentResult

TITLE = "Table III: randomness battery, original vs PBS value stream"
PAPER_CLAIM = (
    "95% confidence intervals of PASS/WEAK/FAIL counts overlap between "
    "the original and PBS-ordered streams for every benchmark"
)

#: The paper's Table III rows (uniform-controlled benchmarks only).
BENCHMARKS = ("swaptions", "genetic", "photon", "mc-integ", "pi", "bandit")
DEFAULT_SEEDS = tuple(range(7))


def _stream_counts(name, scale, seeds, use_pbs) -> Dict[str, List[int]]:
    from ..stats import FAIL, PASS, WEAK, run_battery, summarize

    counts: Dict[str, List[int]] = {PASS: [], WEAK: [], FAIL: []}
    for seed in seeds:
        session = Session(name, scale=scale, seed=seed).record_consumed()
        if use_pbs:
            session.pbs()
        run = session.run()
        summary = summarize(run_battery(run.consumed_values))
        for key in counts:
            counts[key].append(summary[key])
    return counts


def run(
    scale: float = DEFAULT_SCALE,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    names: Optional[Sequence[str]] = None,
) -> ExperimentResult:
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
        original = _stream_counts(name, scale, seeds, use_pbs=False)
        with_pbs = _stream_counts(name, scale, seeds, use_pbs=True)
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


def main(scale: float = DEFAULT_SCALE) -> None:
    print(run(scale=scale).render())
