"""Probabilistic Branch Support — the paper's primary contribution.

The :class:`PBSEngine` models the hardware unit of Figure 4: the Prob-BTB
steering fetch for known probabilistic branches, the SwapTable holding
extra probabilistic values, the Prob-in-Flight table carrying records from
execute back to fetch, and the Context-Table scoping everything to the two
innermost loops.
"""

from .config import PBSConfig
from .context import ContextTable
from .cost import (
    context_table_entry_bits,
    hardware_cost,
    hardware_cost_bytes,
    inflight_entry_bits,
    prob_btb_entry_bits,
    swap_table_entry_bits,
)
from .engine import PBSEngine, PBSStats
from .tables import (
    BranchKey,
    ProbBTB,
    ProbBTBEntry,
    ProbInFlightTable,
    SwapTable,
)

__all__ = [
    "PBSConfig",
    "ContextTable",
    "context_table_entry_bits",
    "hardware_cost",
    "hardware_cost_bytes",
    "inflight_entry_bits",
    "prob_btb_entry_bits",
    "swap_table_entry_bits",
    "PBSEngine",
    "PBSStats",
    "BranchKey",
    "ProbBTB",
    "ProbBTBEntry",
    "ProbInFlightTable",
    "SwapTable",
]
