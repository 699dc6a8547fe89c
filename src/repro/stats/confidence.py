"""Confidence intervals used throughout the evaluation.

The paper reports 95% confidence intervals in two places: the Genetic
success rate (§VII-D) and the DieHarder PASS/WEAK/FAIL counts across seven
seeds (Table III).  Both are small-sample means, so we use the Student-t
interval; proportions get the Wilson interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Interval:
    """A two-sided confidence interval around a point estimate."""

    mean: float
    low: float
    high: float
    confidence: float = 0.95

    def overlaps(self, other: "Interval") -> bool:
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.3f} [{self.low:.3f}, {self.high:.3f}]"


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )


def mean_interval(samples: Sequence[float], confidence: float = 0.95) -> Interval:
    """Student-t confidence interval for the mean of ``samples``.

    ``n == 1`` yields the degenerate ``[mean, mean]`` interval (one
    sample carries no width information); ``n == 0`` raises.  Zero
    variance likewise collapses the interval to a point.
    """
    _check_confidence(confidence)
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    mean = sum(samples) / n
    if n == 1:
        return Interval(mean, mean, mean, confidence)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    from scipy import stats as sps  # deferred: slow to import

    half_width = (
        sps.t.ppf(0.5 + confidence / 2.0, n - 1) * math.sqrt(variance / n)
    )
    return Interval(mean, mean - half_width, mean + half_width, confidence)


def proportion_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Interval:
    """Wilson score interval for a binomial proportion.

    Unlike the normal approximation, Wilson stays inside ``[0, 1]`` and
    keeps a non-empty interval at 0 or ``trials`` successes.
    """
    _check_confidence(confidence)
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be within [0, {trials}], got {successes}"
        )
    from scipy import stats as sps  # deferred: slow to import

    z = sps.norm.ppf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return Interval(p, max(0.0, centre - half), min(1.0, centre + half), confidence)


def count_interval(
    counts: Sequence[int], maximum: int, confidence: float = 0.95
) -> Interval:
    """Interval for a bounded count (e.g. tests passed out of 19),
    clamped to the feasible range — the paper's "48-40" style entries."""
    interval = mean_interval([float(c) for c in counts], confidence)
    return Interval(
        interval.mean,
        max(0.0, interval.low),
        min(float(maximum), interval.high),
        confidence,
    )
