"""Statistics substrate: randomness battery and confidence intervals.

Neither numpy nor scipy loads until it is used: the battery's names
resolve through :func:`__getattr__`, and the intervals import scipy
when they compute.
"""

from .confidence import Interval, count_interval, mean_interval, proportion_interval

_RANDOMNESS = (
    "BATTERY", "FAIL", "NUM_TESTS", "PASS", "WEAK",
    "TestResult", "classify", "run_battery", "summarize",
)


def __getattr__(name):
    if name in _RANDOMNESS:
        from . import randomness

        return getattr(randomness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Interval",
    "count_interval",
    "mean_interval",
    "proportion_interval",
    "BATTERY",
    "FAIL",
    "NUM_TESTS",
    "PASS",
    "WEAK",
    "TestResult",
    "classify",
    "run_battery",
    "summarize",
]
