"""Out-of-order core timing model (interval/dataflow style)."""

from .config import DEFAULT_LATENCIES, CoreConfig, eight_wide, four_wide
from .metrics import CoreStats
from .model import LatencyWalk, OoOCore

__all__ = [
    "DEFAULT_LATENCIES",
    "CoreConfig",
    "eight_wide",
    "four_wide",
    "CoreStats",
    "LatencyWalk",
    "OoOCore",
]
