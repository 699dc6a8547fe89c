"""Figure 8: normalized IPC on the 8-wide, 256-entry-ROB core.

A wider pipeline wastes more work per misprediction, so PBS helps more:
the paper reports 13.8% average improvement (up to 25%) over tournament
and 10.8% (up to 19%) over TAGE-SC-L.
"""

from __future__ import annotations

from typing import List

from ..pipeline import eight_wide
from ..sim import RunSpec
from .common import DEFAULT_SCALE, DEFAULT_SEED, ExperimentResult, Names, Runs, simulate
from . import figure7

TITLE = "Figure 8: normalized IPC, 8-wide out-of-order core"
PAPER_CLAIM = (
    "on the 8-wide core PBS improves IPC by 13.8% avg (up to 25%) over "
    "tournament and 10.8% avg (up to 19%) over TAGE-SC-L"
)


def specs(scale: float, seed: int = DEFAULT_SEED, names: Names = None) -> List[RunSpec]:
    return figure7.ipc_specs(eight_wide, scale, seed, names)


def reduce(runs: Runs, scale: float, seed: int = DEFAULT_SEED,
           names: Names = None) -> ExperimentResult:
    return figure7.ipc_table(runs, specs(scale, seed, names), TITLE, PAPER_CLAIM)


def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
        names: Names = None) -> ExperimentResult:
    return reduce(simulate(specs(scale, seed, names)), scale, seed, names)
